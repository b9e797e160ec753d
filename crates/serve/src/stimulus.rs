//! Broadcast content: what the server streams and how dies decode it.
//!
//! [`ServedStimulus::build`] runs ATPG once, EDT-encodes every cube
//! that the codec accepts against the design's scan architecture, and
//! precomputes the golden (defect-free) responses and per-window MISR
//! signatures through the `SimKernel`. Both the tester and every die
//! derive patterns from the *wire form* through [`StimulusDecoder`], so
//! a pattern that round-trips the codec is bit-identical on each side —
//! the invariant the fleet tests pin down.

use dft_atpg::{Atpg, AtpgConfig};
use dft_checkpoint::fnv1a;
use dft_compress::{Misr, ScanEdt};
use dft_fault::{universe_stuck_at, Fault};
use dft_logicsim::{KernelKind, Pattern, PatternSet, Response, SimKernel, TapeKernel};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_scan::{insert_scan, ScanConfig, ScanInsertion};
use dft_trace::TraceHandle;

use crate::frame::{FrameError, Stimulus};

/// Everything that parameterizes one fleet run. Execution knobs
/// (`client_threads`, `checkpoint_every`) do not enter the
/// [`fingerprint`](ServeConfig::fingerprint), so a resumed run may use
/// different ones; content knobs all do.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Dies in the fleet.
    pub dies: usize,
    /// Patterns per streamed window.
    pub window_patterns: usize,
    /// Random patterns prepended to the deterministic cube set.
    pub random_patterns: usize,
    /// Master seed: pattern fill, defect seeding, chaos ordinals.
    pub seed: u64,
    /// Fraction of dies seeded with a defect (deterministic per die).
    pub defect_rate: f64,
    /// Scan chains inserted for EDT.
    pub chains: usize,
    /// EDT channel count.
    pub channels: usize,
    /// EDT ring length; 0 derives `shift_cycles().clamp(8, 32)`.
    pub ring_len: usize,
    /// Client worker threads driving die sessions.
    pub client_threads: usize,
    /// Harvesting floor forwarded to `plan_degradation`.
    pub max_bad_cores: usize,
    /// Checkpoint cadence: journal the fleet state every N finished
    /// dies.
    pub checkpoint_every: usize,
    /// Circuit-breaker budget: reconnect attempts per die before the
    /// breaker trips and the die is quarantined `Untestable`. This is
    /// state-bearing (it decides verdicts), so it *does* enter the
    /// fingerprint.
    pub max_reconnects: u32,
    /// Base delay (ms) of the deterministic reconnect backoff
    /// schedule; `0` disables backoff. Liveness-only: excluded from
    /// the fingerprint.
    pub backoff_base_ms: u64,
    /// Socket read/write deadline (ms) for both halves of a session;
    /// `0` leaves sockets blocking. Liveness-only: excluded from the
    /// fingerprint.
    pub io_timeout_ms: u64,
    /// Consecutive heartbeats the server tolerates from an idle
    /// uploader before the idle-session reaper closes it.
    /// Liveness-only: excluded from the fingerprint.
    pub max_heartbeats: u32,
    /// SoC geometry for the harvest path.
    pub soc: dft_aichip::SocConfig,
    /// Has no effect: the gate tape is the only simulation engine. The
    /// field stays for source compatibility only and is excluded from
    /// the fingerprint.
    pub kernel: Option<KernelKind>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            dies: 16,
            window_patterns: 32,
            random_patterns: 48,
            seed: 0xD1E5,
            defect_rate: 0.25,
            chains: 4,
            channels: 2,
            ring_len: 0,
            client_threads: 1,
            max_bad_cores: 2,
            checkpoint_every: 4,
            max_reconnects: 32,
            backoff_base_ms: 1,
            io_timeout_ms: 5000,
            max_heartbeats: 16,
            soc: dft_aichip::SocConfig::default(),
            kernel: None,
        }
    }
}

impl ServeConfig {
    /// Content fingerprint for checkpoint compatibility: everything
    /// that changes the broadcast or the verdicts. Thread counts,
    /// checkpoint cadence, liveness knobs (backoff base, I/O deadline,
    /// heartbeat tolerance), and the inert `kernel` field are excluded
    /// so a resume may cross any of them. The
    /// reconnect budget `max_reconnects` decides quarantine verdicts,
    /// so it is included.
    pub fn fingerprint(&self, design: &str) -> u64 {
        let canon = format!(
            "serve design={design} dies={} window={} random={} seed={} defect={:x} \
             chains={} channels={} ring={} maxbad={} cores={} reconnects={}",
            self.dies,
            self.window_patterns,
            self.random_patterns,
            self.seed,
            self.defect_rate.to_bits(),
            self.chains,
            self.channels,
            self.ring_len,
            self.max_bad_cores,
            self.soc.num_cores,
            self.max_reconnects,
        );
        fnv1a(canon.as_bytes())
    }

    /// The socket deadline as a `Duration`, `None` when disabled.
    pub fn io_timeout(&self) -> Option<std::time::Duration> {
        (self.io_timeout_ms > 0).then(|| std::time::Duration::from_millis(self.io_timeout_ms))
    }
}

/// The compile-once broadcast: wire-form windows, the decoded reference
/// patterns, golden responses, and per-window golden MISR signatures.
#[derive(Debug)]
pub struct ServedStimulus<'nl> {
    nl: &'nl Netlist,
    scan: Option<ScanInsertion>,
    channels: usize,
    ring_len: usize,
    /// Wire form: `windows[w]` is the stimulus list of window `w`.
    pub windows: Vec<Vec<Stimulus>>,
    /// The decoded reference patterns, window-major order.
    pub patterns: PatternSet,
    /// Good-machine responses, one per pattern.
    pub golden_responses: Vec<Response>,
    /// Golden MISR signature per window (MISR reset between windows).
    pub golden_sigs: Vec<Vec<bool>>,
    /// Full simulation pattern width.
    pub pattern_width: usize,
    /// MISR width (response width, floored at the MISR minimum of 2).
    pub misr_width: usize,
    /// The stuck-at fault universe defects are seeded from.
    pub universe: Vec<Fault>,
    /// Cubes the EDT encoder accepted (shipped compressed).
    pub edt_encoded: usize,
    /// Patterns shipped flat (random fills + encoder rejects).
    pub edt_flat: usize,
}

impl<'nl> ServedStimulus<'nl> {
    /// Builds the broadcast content for `nl` under `cfg`: ATPG, EDT
    /// encoding, golden simulation. Deterministic in `(nl, cfg)`.
    pub fn build(
        nl: &'nl Netlist,
        cfg: &ServeConfig,
        metrics: &MetricsHandle,
        trace: &TraceHandle,
    ) -> ServedStimulus<'nl> {
        let _t = trace.phase_span("serve_build");
        let scannable = nl.num_dffs() > 0;
        let scan = scannable.then(|| insert_scan(nl, &ScanConfig::new().num_chains(cfg.chains)));
        let ring_len = match (cfg.ring_len, &scan) {
            (0, Some(s)) => s.shift_cycles().clamp(8, 32),
            (0, None) => 8,
            (r, _) => r,
        };

        let run = Atpg::new(nl)
            .with_metrics(metrics.clone())
            .with_trace(trace.clone())
            .run(
                &AtpgConfig::new()
                    .random_patterns(cfg.random_patterns)
                    .seed(cfg.seed),
            );

        let mut patterns = PatternSet::for_netlist(nl);
        let mut stimuli: Vec<Stimulus> = Vec::new();
        let (mut edt_encoded, mut edt_flat) = (0usize, 0usize);
        for p in PatternSet::random(nl, cfg.random_patterns, cfg.seed).iter() {
            stimuli.push(Stimulus::Flat(p.clone()));
            patterns.push(p.clone());
            edt_flat += 1;
        }
        let edt = scan
            .as_ref()
            .map(|s| ScanEdt::new(nl, s, cfg.channels, ring_len, 0xED7));
        let num_pi = nl.num_inputs();
        for (i, cube) in run.cubes.iter().enumerate() {
            let fill = cube.random_fill(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let encoded = edt
                .as_ref()
                .and_then(|e| e.codec().encode(&e.to_cell_cube(cube)).map(|ch| (e, ch)));
            match encoded {
                Some((e, channel_bits)) => {
                    let pi_bits = fill[..num_pi].to_vec();
                    let loads = e.codec().expand(&channel_bits);
                    patterns.push(e.to_pattern(&pi_bits, &loads));
                    stimuli.push(Stimulus::Edt {
                        pi_bits,
                        channel_bits,
                    });
                    edt_encoded += 1;
                }
                None => {
                    patterns.push(fill.clone());
                    stimuli.push(Stimulus::Flat(fill));
                    edt_flat += 1;
                }
            }
        }
        assert!(!stimuli.is_empty(), "broadcast needs at least one pattern");

        let windows: Vec<Vec<Stimulus>> = stimuli
            .chunks(cfg.window_patterns.max(1))
            .map(<[Stimulus]>::to_vec)
            .collect();

        let kernel = TapeKernel::compile(nl)
            .with_metrics(metrics.clone())
            .with_trace(trace.clone());
        let golden_responses = kernel.eval_batch(&patterns);
        let misr_width = golden_responses[0].len().max(2);
        let golden_sigs =
            window_signatures(&golden_responses, cfg.window_patterns.max(1), misr_width);

        ServedStimulus {
            nl,
            scan,
            channels: cfg.channels,
            ring_len,
            windows,
            pattern_width: patterns.width(),
            patterns,
            golden_responses,
            golden_sigs,
            misr_width,
            universe: universe_stuck_at(nl),
            edt_encoded,
            edt_flat,
        }
    }

    /// The design netlist.
    pub fn netlist(&self) -> &'nl Netlist {
        self.nl
    }

    /// Total streamed windows.
    pub fn total_windows(&self) -> usize {
        self.windows.len()
    }

    /// A decoder for the wire form (one per client thread; carries the
    /// EDT binding).
    pub fn decoder(&self) -> StimulusDecoder<'_> {
        StimulusDecoder {
            edt: self
                .scan
                .as_ref()
                .map(|s| ScanEdt::new(self.nl, s, self.channels, self.ring_len, 0xED7)),
            num_pi: self.nl.num_inputs(),
            width: self.pattern_width,
        }
    }
}

/// Turns wire [`Stimulus`] values back into full simulation patterns —
/// the die-side half of the codec round trip.
#[derive(Debug)]
pub struct StimulusDecoder<'a> {
    edt: Option<ScanEdt<'a>>,
    num_pi: usize,
    width: usize,
}

impl StimulusDecoder<'_> {
    /// Decodes one stimulus. Structural mismatches (wrong widths, EDT
    /// stimulus for an unscannable design) are [`FrameError::BadPayload`].
    pub fn decode(&self, s: &Stimulus) -> Result<Pattern, FrameError> {
        match s {
            Stimulus::Flat(bits) => {
                if bits.len() != self.width {
                    return Err(FrameError::BadPayload("flat stimulus width mismatch"));
                }
                Ok(bits.clone())
            }
            Stimulus::Edt {
                pi_bits,
                channel_bits,
            } => {
                let edt = self
                    .edt
                    .as_ref()
                    .ok_or(FrameError::BadPayload("EDT stimulus without scan"))?;
                if pi_bits.len() != self.num_pi {
                    return Err(FrameError::BadPayload("PI bit width mismatch"));
                }
                // `expand` asserts its geometry, so a malformed cycle
                // list from the wire must be rejected before it.
                let codec = edt.codec();
                let cycles = codec.compressed_bits() / codec.channels();
                if channel_bits.len() != cycles
                    || channel_bits.iter().any(|c| c.len() != codec.channels())
                {
                    return Err(FrameError::BadPayload("channel bit geometry mismatch"));
                }
                Ok(edt.to_pattern(pi_bits, &edt.codec().expand(channel_bits)))
            }
        }
    }

    /// Decodes a whole window into a [`PatternSet`].
    pub fn decode_window(&self, stimuli: &[Stimulus]) -> Result<PatternSet, FrameError> {
        let mut set = PatternSet::new(self.width);
        for s in stimuli {
            set.push(self.decode(s)?);
        }
        Ok(set)
    }
}

/// Absorbs `responses` into per-window MISR signatures: the MISR is
/// reset at each window boundary so windows verify independently (and a
/// resumed run never needs cross-window MISR state). Responses narrower
/// than the MISR (tiny designs) are zero-padded.
pub(crate) fn window_signatures(
    responses: &[Response],
    window_patterns: usize,
    misr_width: usize,
) -> Vec<Vec<bool>> {
    responses
        .chunks(window_patterns)
        .map(|window| {
            let mut misr = Misr::new(misr_width);
            let mut padded = vec![false; misr_width];
            for r in window {
                padded[..r.len()].copy_from_slice(r);
                misr.absorb(&padded);
            }
            misr.signature().to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_execution_knobs() {
        let a = ServeConfig::default();
        let mut b = a;
        b.client_threads = 4;
        b.checkpoint_every = 1;
        b.kernel = Some(KernelKind::Tape);
        b.backoff_base_ms = 0;
        b.io_timeout_ms = 50;
        b.max_heartbeats = 2;
        assert_eq!(a.fingerprint("mac4"), b.fingerprint("mac4"));
        let mut c = a;
        c.dies = 17;
        assert_ne!(a.fingerprint("mac4"), c.fingerprint("mac4"));
        assert_ne!(a.fingerprint("mac4"), a.fingerprint("sys2x2"));
        // The reconnect budget decides verdicts, so it is content.
        let mut d = a;
        d.max_reconnects = 3;
        assert_ne!(a.fingerprint("mac4"), d.fingerprint("mac4"));
        assert_eq!(a.io_timeout(), Some(std::time::Duration::from_secs(5)));
        d.io_timeout_ms = 0;
        assert_eq!(d.io_timeout(), None);
    }
}
