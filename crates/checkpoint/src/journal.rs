//! The `aidft-ckpt-v1` append-only checkpoint journal.
//!
//! A journal file is a sequence of framed, checksummed records: the
//! [`crate::frame_record`] framing around a [`CkptState`] body, written
//! and recovered by [`crate::FramedJournal`]. Each
//! record is a complete resumable snapshot; the file only ever grows, so
//! a process killed mid-write can at worst leave one *torn* record at
//! the tail. [`Journal::load_last`] scans records newest-first and
//! returns the newest record whose frame is complete and whose FNV-1a
//! checksum matches — torn tails and flipped bytes are skipped, never
//! fatal.
//!
//! Record grammar (line-oriented text; `\n` separators):
//!
//! ```text
//! ckpt aidft-ckpt-v1 <seq>
//! design <name>
//! config <hex16>            # caller-computed configuration hash
//! phase <init | topoff <round> | signoff>
//! seed <u64>
//! fill_seed <u64>
//! ordinal <u64>
//! random_detected <u64>
//! width <usize>             # pattern width in bits
//! section main
//! tally <untestable> <aborted> <escalated> <rescued>
//! status <compact codes>    # u / d<pattern> / x / a, comma-separated
//! npat <count>
//! pat <0/1 bits>            # one line per pattern
//! ncube <count>
//! cube <0/1/X bits>         # one line per cube
//! [section pre_compaction]  # optional second section, same layout
//! end <hex16>               # FNV-1a of every line above, incl. header
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The on-disk format identifier; bump on any incompatible change.
pub const CKPT_FORMAT: &str = "aidft-ckpt-v1";

/// FNV-1a 64-bit hash (also used by callers to fingerprint their
/// configuration into [`CkptState::config_hash`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Per-fault resume status (a plain-data mirror of the fault-list
/// status, without the `dft-fault` dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptStatus {
    /// Not yet detected.
    #[default]
    Undetected,
    /// Detected; payload is the first-detecting pattern index.
    Detected(u32),
    /// Proven untestable.
    Untestable,
    /// Aborted at the effort limit.
    Aborted,
}

/// Where a resumed run picks up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptPhase {
    /// Nothing durable happened yet; resume re-runs from scratch.
    Init,
    /// Mid deterministic top-off, in compaction round `round`.
    Topoff(u32),
    /// Top-off and compaction complete; only sign-off simulation (and
    /// downstream compression) remain.
    Signoff,
}

/// One resumable snapshot of the mutable ATPG frontier: fault
/// partitions, the pattern set, and the deterministic cubes, plus the
/// top-off classification tally `[untestable, aborted, escalated,
/// rescued]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptSection {
    /// Per-collapsed-fault statuses, in fault-list order.
    pub statuses: Vec<CkptStatus>,
    /// Fully-specified patterns (random prefix + deterministic).
    pub patterns: Vec<Vec<bool>>,
    /// Deterministic cubes (`None` = don't-care bit).
    pub cubes: Vec<Vec<Option<bool>>>,
    /// `[untestable, aborted, escalated, rescued]` counters.
    pub tally: [u64; 4],
}

/// A complete `aidft-ckpt-v1` record: everything a run needs to resume
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptState {
    /// Design name (resume refuses a mismatch).
    pub design: String,
    /// Caller-computed configuration fingerprint (resume refuses a
    /// mismatch — a resumed run must use the exact seed/limits of the
    /// original).
    pub config_hash: u64,
    /// Resume point.
    pub phase: CkptPhase,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Current cube-fill RNG state.
    pub fill_seed: u64,
    /// Per-fault trace-sampling ordinal.
    pub fault_ordinal: u64,
    /// Collapsed faults detected by the random phase (for reporting).
    pub random_detected: u64,
    /// Pattern width in bits.
    pub width: usize,
    /// The live frontier.
    pub main: CkptSection,
    /// Pre-compaction fallback snapshot, present only while a rebuilt
    /// pattern set is still on probation (top-off round ≥ 1).
    pub pre_compaction: Option<CkptSection>,
}

/// Why a journal could not produce a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// The journal file could not be read.
    Io {
        /// Journal path.
        path: String,
        /// Underlying error.
        source: io::Error,
    },
    /// The file holds no complete, checksum-valid record.
    NoValidRecord {
        /// Journal path.
        path: String,
    },
    /// The resuming run's identity does not match the record.
    Mismatch {
        /// Which field disagreed (`design` or `config`).
        what: &'static str,
        /// Value in the checkpoint.
        expected: String,
        /// Value of the resuming run.
        found: String,
    },
    /// The journal holds zero intact records and cannot be repaired —
    /// corrupt beyond repair (`aidft fsck` exit code 5).
    Corrupt {
        /// Journal path.
        path: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, source } => write!(f, "read checkpoint {path}: {source}"),
            CkptError::NoValidRecord { path } => {
                write!(f, "{path}: no complete {CKPT_FORMAT} record")
            }
            CkptError::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {what} mismatch: checkpoint has `{expected}`, this run has `{found}`"
            ),
            CkptError::Corrupt { path } => {
                write!(f, "{path}: corrupt beyond repair (no intact record)")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CkptState {
    /// Refuses resume when `design`/`config_hash` disagree with this
    /// record.
    pub fn verify(&self, design: &str, config_hash: u64) -> Result<(), CkptError> {
        if self.design != design {
            return Err(CkptError::Mismatch {
                what: "design",
                expected: self.design.clone(),
                found: design.to_owned(),
            });
        }
        if self.config_hash != config_hash {
            return Err(CkptError::Mismatch {
                what: "config",
                expected: format!("{:016x}", self.config_hash),
                found: format!("{config_hash:016x}"),
            });
        }
        Ok(())
    }

    /// Renders the record (header through `end` line, trailing newline):
    /// the [`crate::frame_record`] framing of the record body.
    pub fn to_record(&self, seq: u64) -> String {
        crate::frame_record(CKPT_FORMAT, seq, &self.to_body())
    }

    /// Parses one record (header line through `end`). `None` on any
    /// framing, field, or checksum problem — the journal treats a bad
    /// record as absent, not fatal.
    pub fn parse_record(text: &str) -> Option<CkptState> {
        let (_, body) = crate::parse_framed(text, CKPT_FORMAT)?;
        CkptState::from_body(&body)
    }

    /// The record body: every line between the header and the trailer.
    fn to_body(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("design {}\n", self.design));
        body.push_str(&format!("config {:016x}\n", self.config_hash));
        match self.phase {
            CkptPhase::Init => body.push_str("phase init\n"),
            CkptPhase::Topoff(round) => body.push_str(&format!("phase topoff {round}\n")),
            CkptPhase::Signoff => body.push_str("phase signoff\n"),
        }
        body.push_str(&format!("seed {}\n", self.seed));
        body.push_str(&format!("fill_seed {}\n", self.fill_seed));
        body.push_str(&format!("ordinal {}\n", self.fault_ordinal));
        body.push_str(&format!("random_detected {}\n", self.random_detected));
        body.push_str(&format!("width {}\n", self.width));
        write_section(&mut body, "main", &self.main);
        if let Some(pre) = &self.pre_compaction {
            write_section(&mut body, "pre_compaction", pre);
        }
        body
    }

    /// Parses a record body (see [`CkptState::to_body`]).
    fn from_body(body: &str) -> Option<CkptState> {
        let mut state = CkptState {
            design: String::new(),
            config_hash: 0,
            phase: CkptPhase::Init,
            seed: 0,
            fill_seed: 0,
            fault_ordinal: 0,
            random_detected: 0,
            width: 0,
            main: CkptSection::default(),
            pre_compaction: None,
        };
        let mut lines = body.lines().peekable();
        while let Some(line) = lines.next() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "design" => state.design = rest.to_owned(),
                "config" => state.config_hash = u64::from_str_radix(rest, 16).ok()?,
                "phase" => {
                    state.phase = match rest.split_once(' ') {
                        Some(("topoff", round)) => CkptPhase::Topoff(round.parse().ok()?),
                        None if rest == "init" => CkptPhase::Init,
                        None if rest == "signoff" => CkptPhase::Signoff,
                        _ => return None,
                    }
                }
                "seed" => state.seed = rest.parse().ok()?,
                "fill_seed" => state.fill_seed = rest.parse().ok()?,
                "ordinal" => state.fault_ordinal = rest.parse().ok()?,
                "random_detected" => state.random_detected = rest.parse().ok()?,
                "width" => state.width = rest.parse().ok()?,
                "section" => {
                    let section = parse_section(&mut lines)?;
                    match rest {
                        "main" => state.main = section,
                        "pre_compaction" => state.pre_compaction = Some(section),
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        Some(state)
    }
}

fn write_section(out: &mut String, name: &str, s: &CkptSection) {
    out.push_str(&format!("section {name}\n"));
    out.push_str(&format!(
        "tally {} {} {} {}\n",
        s.tally[0], s.tally[1], s.tally[2], s.tally[3]
    ));
    let mut codes = String::with_capacity(s.statuses.len() * 2);
    for (i, st) in s.statuses.iter().enumerate() {
        if i > 0 {
            codes.push(',');
        }
        match st {
            CkptStatus::Undetected => codes.push('u'),
            CkptStatus::Detected(p) => codes.push_str(&format!("d{p}")),
            CkptStatus::Untestable => codes.push('x'),
            CkptStatus::Aborted => codes.push('a'),
        }
    }
    out.push_str(&format!("status {codes}\n"));
    out.push_str(&format!("npat {}\n", s.patterns.len()));
    for p in &s.patterns {
        out.push_str("pat ");
        out.extend(p.iter().map(|&b| if b { '1' } else { '0' }));
        out.push('\n');
    }
    out.push_str(&format!("ncube {}\n", s.cubes.len()));
    for c in &s.cubes {
        out.push_str("cube ");
        out.extend(c.iter().map(|b| match b {
            Some(true) => '1',
            Some(false) => '0',
            None => 'X',
        }));
        out.push('\n');
    }
}

fn parse_section<'a, I: Iterator<Item = &'a str>>(
    lines: &mut std::iter::Peekable<I>,
) -> Option<CkptSection> {
    let mut s = CkptSection::default();
    let tally_line = lines.next()?.strip_prefix("tally ")?;
    for (i, v) in tally_line.split_whitespace().enumerate() {
        if i >= 4 {
            return None;
        }
        s.tally[i] = v.parse().ok()?;
    }
    let codes = lines.next()?.strip_prefix("status ")?;
    if !codes.is_empty() {
        for code in codes.split(',') {
            s.statuses.push(match code {
                "u" => CkptStatus::Undetected,
                "x" => CkptStatus::Untestable,
                "a" => CkptStatus::Aborted,
                d => CkptStatus::Detected(d.strip_prefix('d')?.parse().ok()?),
            });
        }
    }
    let npat: usize = lines.next()?.strip_prefix("npat ")?.parse().ok()?;
    for _ in 0..npat {
        let bits = lines.next()?.strip_prefix("pat ")?;
        s.patterns
            .push(bits.chars().map(|c| c == '1').collect::<Vec<bool>>());
    }
    let ncube: usize = lines.next()?.strip_prefix("ncube ")?.parse().ok()?;
    for _ in 0..ncube {
        let bits = lines.next()?.strip_prefix("cube ")?;
        let mut cube = Vec::with_capacity(bits.len());
        for c in bits.chars() {
            cube.push(match c {
                '1' => Some(true),
                '0' => Some(false),
                'X' => None,
                _ => return None,
            });
        }
        s.cubes.push(cube);
    }
    Some(s)
}

/// Handle to an `aidft-ckpt-v1` journal file: a [`crate::FramedJournal`]
/// whose record bodies are [`CkptState`]s. Replicas
/// ([`Journal::with_replicas`]), seeded disk faults
/// ([`Journal::with_disk_chaos`]), torn-tail realignment and
/// newest-intact-record recovery are the framed journal's.
#[derive(Debug, Clone)]
pub struct Journal(crate::FramedJournal);

impl Journal {
    /// A journal at `path` (created on first append), unreplicated and
    /// chaos-free.
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal(crate::FramedJournal::new(path, CKPT_FORMAT))
    }

    /// Writes every record to `n` replica files (clamped to at least
    /// 1); loads fall back to the newest intact record across them.
    pub fn with_replicas(self, n: u32) -> Journal {
        Journal(self.0.with_replicas(n))
    }

    /// Routes every append through the disk-fault chaos layer driven
    /// by `chaos` (the `eio=`/`shortwrite=`/`bitrot=`/`fsync_fail=`
    /// knobs), keyed per `(seq, replica)`.
    pub fn with_disk_chaos(self, chaos: crate::ChaosConfig) -> Journal {
        Journal(self.0.with_disk_chaos(chaos))
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        self.0.path()
    }

    /// Appends one complete record; returns the bytes written. With
    /// replicas configured the append succeeds when at least one
    /// replica took the full record.
    pub fn append(&self, state: &CkptState, seq: u64) -> io::Result<u64> {
        self.0.append(seq, &state.to_body())
    }

    /// Chaos hook: simulates a write failure by appending only a torn
    /// prefix of the record, then returning an error. The previous
    /// record stays recoverable — exactly what a kill mid-write leaves
    /// behind.
    pub fn append_torn(&self, state: &CkptState, seq: u64) -> io::Result<u64> {
        self.0.append_torn(seq, &state.to_body())
    }

    /// Loads the newest complete, checksum-valid record. Torn tails and
    /// corrupt records are skipped, and with replicas configured the
    /// newest intact record on *any* replica wins; only a journal with
    /// no valid record anywhere is an error.
    pub fn load_last(&self) -> Result<CkptState, CkptError> {
        self.load_last_report().map(|(state, _)| state)
    }

    /// [`Journal::load_last`] plus the [`crate::RecoveryReport`]
    /// describing the damage the load stepped over and which replica
    /// served the record — any intact record resumes bit-identically,
    /// so a degraded report is an observability signal, not an error.
    pub fn load_last_report(&self) -> Result<(CkptState, crate::RecoveryReport), CkptError> {
        self.0
            .load_last_decoded(CkptState::from_body)
            .map(|((_, state), report)| (state, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> CkptState {
        CkptState {
            design: "mac4".into(),
            config_hash: 0xDEAD_BEEF_0BAD_F00D,
            phase: CkptPhase::Topoff(1),
            seed: 0x5EED,
            fill_seed: 42 + seq,
            fault_ordinal: 17,
            random_detected: 301,
            width: 5,
            main: CkptSection {
                statuses: vec![
                    CkptStatus::Undetected,
                    CkptStatus::Detected(7),
                    CkptStatus::Untestable,
                    CkptStatus::Aborted,
                ],
                patterns: vec![vec![true, false, true, true, false]],
                cubes: vec![vec![Some(true), None, Some(false), None, None]],
                tally: [1, 2, 3, 4],
            },
            pre_compaction: Some(CkptSection {
                statuses: vec![CkptStatus::Detected(0)],
                patterns: vec![vec![false; 5]],
                cubes: vec![],
                tally: [0, 0, 0, 0],
            }),
        }
    }

    #[test]
    fn record_roundtrip() {
        let s = sample(3);
        let text = s.to_record(3);
        let back = CkptState::parse_record(&text).expect("parses");
        assert_eq!(back, s);
    }

    /// The exact on-disk bytes of one record, and that they are the
    /// generic framing of the record's body.
    #[test]
    fn record_bytes_are_pinned() {
        const RECORD: &str = "ckpt aidft-ckpt-v1 3\n\
            design mac4\nconfig deadbeef0badf00d\nphase topoff 1\nseed 24301\n\
            fill_seed 45\nordinal 17\nrandom_detected 301\nwidth 5\n\
            section main\ntally 1 2 3 4\nstatus u,d7,x,a\nnpat 1\npat 10110\n\
            ncube 1\ncube 1X0XX\n\
            section pre_compaction\ntally 0 0 0 0\nstatus d0\nnpat 1\npat 00000\nncube 0\n\
            end feb3453b6ac05399\n";
        assert_eq!(sample(3).to_record(3), RECORD);
        let (seq, body) = crate::parse_framed(RECORD, CKPT_FORMAT).expect("framed");
        assert_eq!(seq, 3);
        assert_eq!(crate::frame_record(CKPT_FORMAT, seq, &body), RECORD);
        assert_eq!(CkptState::parse_record(RECORD), Some(sample(3)));
    }

    #[test]
    fn checksum_rejects_bit_flips() {
        let text = sample(0).to_record(0);
        let tampered = text.replace("fill_seed 42", "fill_seed 43");
        assert!(CkptState::parse_record(&tampered).is_none());
        assert!(CkptState::parse_record(&text[..text.len() / 2]).is_none());
    }

    #[test]
    fn journal_returns_newest_valid_record() {
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = Journal::new(dir.join("newest.ckpt"));
        let _ = std::fs::remove_file(j.path());
        j.append(&sample(0), 0).unwrap();
        j.append(&sample(1), 1).unwrap();
        assert_eq!(j.load_last().unwrap().fill_seed, 43);
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn torn_tail_recovers_previous_record() {
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = Journal::new(dir.join("torn.ckpt"));
        let _ = std::fs::remove_file(j.path());
        j.append(&sample(0), 0).unwrap();
        assert!(j.append_torn(&sample(1), 1).is_err());
        // The torn record is skipped; the complete one survives.
        assert_eq!(j.load_last().unwrap().fill_seed, 42);
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn append_after_torn_tail_realigns_and_stays_visible() {
        // A torn tail ends mid-line; the next append must put its
        // header back on a line boundary or the new record would be
        // glued into the torn one and become unloadable.
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = Journal::new(dir.join("realign.ckpt"));
        let _ = std::fs::remove_file(j.path());
        assert!(j.append_torn(&sample(0), 0).is_err());
        assert!(j.append_torn(&sample(1), 1).is_err());
        j.append(&sample(2), 2).unwrap();
        assert_eq!(j.load_last().unwrap().fill_seed, 44);
        // And a torn tail *after* a realigned record still recovers it.
        assert!(j.append_torn(&sample(3), 3).is_err());
        assert_eq!(j.load_last().unwrap().fill_seed, 44);
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn empty_or_missing_journal_is_a_clean_error() {
        let j = Journal::new("/nonexistent/aidft.ckpt");
        assert!(matches!(j.load_last(), Err(CkptError::Io { .. })));
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("empty.ckpt");
        std::fs::write(&p, "garbage\n").unwrap();
        let j = Journal::new(&p);
        assert!(matches!(
            j.load_last(),
            Err(CkptError::NoValidRecord { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn verify_checks_design_and_config() {
        let s = sample(0);
        assert!(s.verify("mac4", 0xDEAD_BEEF_0BAD_F00D).is_ok());
        assert!(matches!(
            s.verify("sys2x2", 0xDEAD_BEEF_0BAD_F00D),
            Err(CkptError::Mismatch { what: "design", .. })
        ));
        assert!(matches!(
            s.verify("mac4", 1),
            Err(CkptError::Mismatch { what: "config", .. })
        ));
    }
}
