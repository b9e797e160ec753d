//! Generic framed, checksummed journal records.
//!
//! Every journal frames each record as a `ckpt <format> <seq>` header, a
//! line-oriented body, and an `end <crc>` trailer whose FNV-1a checksum
//! covers everything above it. The ATPG checkpoint journal
//! (`aidft-ckpt-v1`, [`crate::Journal`]), the serve fleet journal
//! (`aidft-serve-v2`) and the telemetry event journal all need the same
//! torn-tail-tolerant, append-only durability, so it lives here once:
//! frame a body, validate a candidate record, and scan a journal file
//! newest-first for the latest record that checks out. Each format owns
//! only its body codec.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::chaos::ChaosConfig;
use crate::io_chaos::{self, ChaosWriter, DiskFault};
use crate::journal::{fnv1a, CkptError};
use crate::scrub::{self, ScrubEntry};

/// Frames `body` (newline-terminated lines, no header/trailer) as one
/// journal record for `format`: `ckpt <format> <seq>` header, the body,
/// and the `end <crc>` trailer. The result is what
/// [`FramedJournal::append`] writes and [`parse_framed`] validates.
pub fn frame_record(format: &str, seq: u64, body: &str) -> String {
    let mut text = format!("ckpt {format} {seq}\n");
    text.push_str(body);
    if !body.is_empty() && !body.ends_with('\n') {
        text.push('\n');
    }
    let crc = fnv1a(text.as_bytes());
    text.push_str(&format!("end {crc:016x}\n"));
    text
}

/// Validates one framed record (header line through `end`) against
/// `format` and returns `(seq, body)` — the lines between header and
/// trailer. `None` on any framing, header, or checksum problem: a bad
/// record is treated as absent, never fatal.
pub fn parse_framed(text: &str, format: &str) -> Option<(u64, String)> {
    let end_pos = text.rfind("\nend ")?;
    let framed = &text[..end_pos + 1];
    let crc_line = text[end_pos + 1..].lines().next()?;
    let crc = u64::from_str_radix(crc_line.strip_prefix("end ")?.trim(), 16).ok()?;
    if fnv1a(framed.as_bytes()) != crc {
        return None;
    }
    let (header, body) = framed.split_once('\n')?;
    let mut h = header.split_whitespace();
    if h.next()? != "ckpt" || h.next()? != format {
        return None;
    }
    let seq: u64 = h.next()?.parse().ok()?;
    Some((seq, body.to_owned()))
}

/// Reads a journal file as text, replacing invalid UTF-8 (a bit-rotted
/// byte can leave any bit pattern on disk) with U+FFFD so damage stays
/// localized to the record it struck: intact regions still verify
/// their checksums, instead of one bad byte failing the whole read.
pub(crate) fn read_text_lossy(path: &Path) -> io::Result<String> {
    Ok(String::from_utf8_lossy(&std::fs::read(path)?).into_owned())
}

/// The on-disk path of replica `replica`: replica 0 is the journal
/// itself, replica `r > 0` is `<path>.r<r>`, so a journal opened with
/// `--checkpoint-replicas 1` and one opened with more agree on where
/// the primary lives.
pub fn replica_path(path: &Path, replica: u32) -> PathBuf {
    if replica == 0 {
        path.to_path_buf()
    } else {
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".r{replica}"));
        PathBuf::from(os)
    }
}

/// How a journal load arrived at its answer: which replica served the
/// winning record and how much damage the scan stepped over. A
/// degraded report is the signal the self-healing path acts on (scrub
/// metric, telemetry `storage` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Replica files that existed and were scanned.
    pub replicas_scanned: u32,
    /// Damaged (torn or checksum-failing) record regions stepped over
    /// across all scanned replicas.
    pub damaged: u64,
    /// Replica index the winning record was read from (0 = primary).
    pub source_replica: u32,
    /// Seq of the recovered record.
    pub seq: u64,
}

impl RecoveryReport {
    /// `true` when the load had to heal: damage was skipped or the
    /// primary could not serve the newest record itself.
    pub fn degraded(&self) -> bool {
        self.damaged > 0 || self.source_replica != 0
    }
}

/// `true` when the file at `path` ends mid-line (a torn tail from a
/// crash or injected write failure): the next record must be preceded
/// by a newline so its header starts at a line boundary and stays
/// visible to the newest-first scan.
pub(crate) fn needs_realignment(path: &Path) -> io::Result<bool> {
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if f.metadata()?.len() == 0 {
        return Ok(false);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Appends `record` (already framed) to one replica file, realigning
/// after a torn tail, with `fault` injected through the
/// [`ChaosWriter`] layer. When `torn` is set only the first half of
/// the record is written and a synthetic I/O error is returned — the
/// legacy `CkptIo` chaos hook that models a kill mid-write.
fn append_one(
    path: &Path,
    record: &str,
    torn: bool,
    fault: DiskFault,
    key: u64,
) -> io::Result<u64> {
    let realign = needs_realignment(path)?;
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = ChaosWriter::new(f, fault, key, record.len() as u64);
    if realign {
        w.write_all(b"\n")?;
    }
    if torn {
        w.write_all(&record.as_bytes()[..record.len() / 2])?;
        w.flush()?;
        return Err(io::Error::other("chaos: injected checkpoint write failure"));
    }
    w.write_all(record.as_bytes())?;
    w.flush()?;
    Ok(record.len() as u64)
}

/// Appends `record` to every replica of the journal at `path`,
/// drawing an independent disk-fault decision per replica (ordinal
/// mixes `seq` with the replica index). The append succeeds when at
/// least one replica took the full record — that is the durability
/// contract replica fallback recovery restores from — and a success
/// also notes the record in the scrub-index sidecar. Returns the
/// record length, or the last per-replica error when every replica
/// failed.
pub(crate) fn append_replicated(
    path: &Path,
    record: &str,
    torn: bool,
    replicas: u32,
    chaos: &ChaosConfig,
    seq: u64,
) -> io::Result<u64> {
    let n = replicas.max(1);
    let mut ok = false;
    let mut last_err: Option<io::Error> = None;
    for r in 0..n {
        let ordinal = io_chaos::disk_ordinal(seq, r);
        let fault = if chaos.has_disk_faults() {
            io_chaos::decide(chaos, ordinal)
        } else {
            DiskFault::None
        };
        let key = io_chaos::fault_key(chaos, ordinal);
        match append_one(&replica_path(path, r), record, torn, fault, key) {
            Ok(_) => ok = true,
            Err(e) => last_err = Some(e),
        }
    }
    if ok {
        if let Some(entry) = ScrubEntry::for_record(seq, record) {
            scrub::note_append(path, &entry);
        }
        Ok(record.len() as u64)
    } else {
        Err(last_err
            .unwrap_or_else(|| io::Error::other("checkpoint append failed on every replica")))
    }
}

/// Splits `text` into candidate record regions for `header` (e.g.
/// `"ckpt aidft-serve-v2 "`): each region runs from one line-aligned
/// header occurrence to the next. Damage never hides a later record —
/// a torn or rotted region simply fails its parse while the regions
/// around it stand alone.
pub(crate) fn record_regions(text: &str, header: &str) -> Vec<(usize, usize)> {
    let mut starts: Vec<usize> = Vec::new();
    let mut at = 0usize;
    while let Some(pos) = text[at..].find(header) {
        let abs = at + pos;
        if abs == 0 || text.as_bytes()[abs - 1] == b'\n' {
            starts.push(abs);
        }
        at = abs + header.len();
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| (start, starts.get(i + 1).copied().unwrap_or(text.len())))
        .collect()
}

/// Scans `text` oldest-first and returns *every* record of `format`
/// that `parse` accepts, in file order. Torn tails and corrupt records
/// are skipped silently, like [`scan_last`] — a journal is allowed to
/// carry damage, never to propagate it.
pub(crate) fn scan_all<T>(text: &str, format: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let header = format!("ckpt {format} ");
    record_regions(text, &header)
        .iter()
        .filter_map(|&(start, end)| parse(&text[start..end]))
        .collect()
}

/// Loads the newest intact record across every replica of the journal
/// at `path`. Per replica the newest parse-clean record wins (file
/// order, matching [`scan_last`]); across replicas the highest seq
/// wins, ties to the lowest replica index — so a rotted primary falls
/// back to an intact sibling instead of refusing. `parse` must return
/// the record's `(seq, value)`.
///
/// Error shape matches the single-file loaders: [`CkptError::Io`]
/// only when *no* replica file could be read at all,
/// [`CkptError::NoValidRecord`] when files exist but hold no intact
/// record of this format.
pub(crate) fn load_last_replicated<T>(
    path: &Path,
    format: &str,
    replicas: u32,
    parse: impl Fn(&str) -> Option<(u64, T)>,
) -> Result<(T, RecoveryReport), CkptError> {
    let header = format!("ckpt {format} ");
    let mut best: Option<(u64, u32, T)> = None;
    let mut damaged = 0u64;
    let mut scanned = 0u32;
    let mut primary_err: Option<io::Error> = None;
    for r in 0..replicas.max(1) {
        let text = match read_text_lossy(&replica_path(path, r)) {
            Ok(t) => t,
            Err(e) => {
                if r == 0 {
                    primary_err = Some(e);
                }
                continue;
            }
        };
        scanned += 1;
        let mut newest: Option<(u64, T)> = None;
        for &(start, end) in &record_regions(&text, &header) {
            match parse(&text[start..end]) {
                Some(v) => newest = Some(v),
                None => damaged += 1,
            }
        }
        if let Some((seq, value)) = newest {
            if best.as_ref().is_none_or(|(s, _, _)| seq > *s) {
                best = Some((seq, r, value));
            }
        }
    }
    if scanned == 0 {
        return Err(CkptError::Io {
            path: path.display().to_string(),
            source: primary_err
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no replica readable")),
        });
    }
    match best {
        Some((seq, replica, value)) => Ok((
            value,
            RecoveryReport {
                replicas_scanned: scanned,
                damaged,
                source_replica: replica,
                seq,
            },
        )),
        None => Err(CkptError::NoValidRecord {
            path: path.display().to_string(),
        }),
    }
}

/// An append-only journal of [`frame_record`]-framed records for one
/// format id: torn-tail realignment on append, newest-first recovery on
/// load, and a body that is opaque text owned by the caller
/// ([`crate::Journal`] wraps it with the checkpoint body codec).
/// Optionally writes N-way replicas ([`FramedJournal::with_replicas`])
/// and injects seeded disk faults ([`FramedJournal::with_disk_chaos`]).
#[derive(Debug, Clone)]
pub struct FramedJournal {
    path: PathBuf,
    format: &'static str,
    replicas: u32,
    chaos: ChaosConfig,
}

impl FramedJournal {
    /// A journal at `path` holding `format` records (created on first
    /// append), unreplicated and chaos-free.
    pub fn new(path: impl Into<PathBuf>, format: &'static str) -> FramedJournal {
        FramedJournal {
            path: path.into(),
            format,
            replicas: 1,
            chaos: ChaosConfig::disabled(),
        }
    }

    /// Writes every record to `n` replica files (`n` is clamped to at
    /// least 1); loads fall back to the newest intact record across
    /// them. Replica 0 is the journal path itself, replica `r` is
    /// `<path>.r<r>`.
    pub fn with_replicas(mut self, n: u32) -> FramedJournal {
        self.replicas = n.max(1);
        self
    }

    /// Routes every append through the disk-fault chaos layer driven
    /// by `chaos` (the `eio=`/`shortwrite=`/`bitrot=`/`fsync_fail=`
    /// knobs). Decisions are keyed per `(seq, replica)` so replicas
    /// fail independently.
    pub fn with_disk_chaos(mut self, chaos: ChaosConfig) -> FramedJournal {
        self.chaos = chaos;
        self
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The format id this journal frames records with.
    pub fn format(&self) -> &'static str {
        self.format
    }

    /// The configured replica count.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Appends one framed record to every replica; returns the bytes
    /// written. Succeeds when at least one replica took the record.
    pub fn append(&self, seq: u64, body: &str) -> io::Result<u64> {
        append_replicated(
            &self.path,
            &frame_record(self.format, seq, body),
            false,
            self.replicas,
            &self.chaos,
            seq,
        )
    }

    /// Chaos hook: appends only a torn prefix of the record, then
    /// returns an error. The previous record stays recoverable.
    pub fn append_torn(&self, seq: u64, body: &str) -> io::Result<u64> {
        append_replicated(
            &self.path,
            &frame_record(self.format, seq, body),
            true,
            self.replicas,
            &self.chaos,
            seq,
        )
    }

    /// Loads *every* complete, checksum-valid record as `(seq, body)`,
    /// oldest-first. Torn or corrupt records in the middle are skipped;
    /// an empty result is not an error (the caller decides whether a
    /// record-free journal is a problem). This is the replay primitive
    /// for append-only event streams (e.g. the `aidft-telemetry-v1`
    /// journal), where checkpoint recovery wants the newest record but
    /// an auditor wants the whole history. Replays the first readable
    /// replica (primary preferred) so history keeps its file order.
    pub fn load_all(&self) -> Result<Vec<(u64, String)>, CkptError> {
        let mut primary_err: Option<io::Error> = None;
        for r in 0..self.replicas {
            match read_text_lossy(&replica_path(&self.path, r)) {
                Ok(text) => {
                    return Ok(scan_all(&text, self.format, |t| {
                        parse_framed(t, self.format)
                    }))
                }
                Err(e) if r == 0 => primary_err = Some(e),
                Err(_) => {}
            }
        }
        Err(CkptError::Io {
            path: self.path.display().to_string(),
            source: primary_err
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no replica readable")),
        })
    }

    /// Loads the newest complete, checksum-valid record as
    /// `(seq, body)`. Torn tails and corrupt records are skipped, and
    /// with replicas configured the newest intact record *anywhere*
    /// wins; only a journal with *no* valid record on any replica is
    /// an error.
    pub fn load_last(&self) -> Result<(u64, String), CkptError> {
        self.load_last_report().map(|(rec, _)| rec)
    }

    /// [`FramedJournal::load_last`] plus the [`RecoveryReport`]
    /// describing how hard the load had to work — the hook the
    /// self-healing path uses to record scrub repairs.
    pub fn load_last_report(&self) -> Result<((u64, String), RecoveryReport), CkptError> {
        self.load_last_decoded(|body| Some(body.to_owned()))
    }

    /// [`FramedJournal::load_last_report`] with each record's body
    /// decoded by `decode`: a record whose body does not decode counts
    /// as damaged, like one whose frame does not check out, and the
    /// newest record that decodes wins.
    pub fn load_last_decoded<T>(
        &self,
        decode: impl Fn(&str) -> Option<T>,
    ) -> Result<((u64, T), RecoveryReport), CkptError> {
        load_last_replicated(&self.path, self.format, self.replicas, |t| {
            let (seq, body) = parse_framed(t, self.format)?;
            Some((seq, (seq, decode(&body)?)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aidft-framed-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn frame_and_parse_roundtrip() {
        let body = "dies 4\ndone 2\n";
        let text = frame_record("test-v1", 7, body);
        let (seq, back) = parse_framed(&text, "test-v1").expect("parses");
        assert_eq!(seq, 7);
        assert_eq!(back, body);
        // Wrong format id is rejected, as is any tampering.
        assert!(parse_framed(&text, "other-v1").is_none());
        assert!(parse_framed(&text.replace("done 2", "done 3"), "test-v1").is_none());
        assert!(parse_framed(&text[..text.len() / 2], "test-v1").is_none());
    }

    #[test]
    fn journal_recovers_newest_after_torn_tail() {
        let j = FramedJournal::new(temp("framed.ckpt"), "test-v1");
        j.append(0, "state a\n").unwrap();
        assert!(j.append_torn(1, "state b\n").is_err());
        assert_eq!(j.load_last().unwrap(), (0, "state a\n".to_owned()));
        // Realignment keeps the next record loadable.
        j.append(2, "state c\n").unwrap();
        assert_eq!(j.load_last().unwrap(), (2, "state c\n".to_owned()));
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn load_all_replays_history_and_skips_damage() {
        let j = FramedJournal::new(temp("framed-all.ckpt"), "test-v1");
        j.append(0, "a\n").unwrap();
        j.append(1, "b\n").unwrap();
        assert!(j.append_torn(2, "torn\n").is_err());
        j.append(3, "c\n").unwrap();
        let all = j.load_all().unwrap();
        assert_eq!(
            all,
            vec![
                (0, "a\n".to_owned()),
                (1, "b\n".to_owned()),
                (3, "c\n".to_owned()),
            ]
        );
        // load_last still sees only the newest; load_all agrees on it.
        assert_eq!(j.load_last().unwrap(), all.last().unwrap().clone());
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn replica_fallback_recovers_newest_intact() {
        let j = FramedJournal::new(temp("replicated.ckpt"), "test-v1").with_replicas(2);
        j.append(0, "state a\n").unwrap();
        j.append(1, "state b\n").unwrap();
        let r1 = replica_path(j.path(), 1);
        assert!(r1.exists(), "replica file written alongside primary");

        // Rot the whole primary: the load falls back to replica 1 and
        // reports the recovery as degraded.
        std::fs::write(j.path(), "garbage where a journal used to be\n").unwrap();
        let ((seq, body), report) = j.load_last_report().unwrap();
        assert_eq!((seq, body.as_str()), (1, "state b\n"));
        assert_eq!(report.source_replica, 1);
        assert!(report.degraded());

        // Even a *deleted* primary is survivable.
        std::fs::remove_file(j.path()).unwrap();
        assert_eq!(j.load_last().unwrap(), (1, "state b\n".to_owned()));
        assert_eq!(j.load_all().unwrap().len(), 2);

        // But losing every replica is a clean Io error.
        std::fs::remove_file(&r1).unwrap();
        assert!(matches!(j.load_last(), Err(CkptError::Io { .. })));
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
    }

    #[test]
    fn undamaged_replicated_load_is_not_degraded() {
        let j = FramedJournal::new(temp("replicated-clean.ckpt"), "test-v1").with_replicas(2);
        j.append(0, "state a\n").unwrap();
        let ((seq, _), report) = j.load_last_report().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(report.replicas_scanned, 2);
        assert_eq!(report.damaged, 0);
        assert!(!report.degraded());
        std::fs::remove_file(j.path()).unwrap();
        std::fs::remove_file(replica_path(j.path(), 1)).unwrap();
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
    }

    #[test]
    fn disk_chaos_bitrot_corrupts_one_replica_detectably() {
        let chaos = crate::ChaosConfig::parse("bitrot=1.0,seed=5").unwrap();
        let j = FramedJournal::new(temp("rotted.ckpt"), "test-v1")
            .with_replicas(2)
            .with_disk_chaos(chaos);
        // bitrot=1.0 rots *every* replica: the append reports success
        // (silent corruption) but nothing intact survives.
        j.append(0, "state a\n").unwrap();
        assert!(matches!(
            j.load_last(),
            Err(CkptError::NoValidRecord { .. })
        ));

        // At a partial probability the replicas draw independently;
        // scan seeds until exactly one replica is rotted, then prove
        // the intact sibling serves the record.
        let partial = (0..64)
            .map(|s| crate::ChaosConfig::parse(&format!("bitrot=0.5,seed={s}")).unwrap())
            .find(|c| {
                let p = crate::io_chaos::decide(c, crate::io_chaos::disk_ordinal(0, 0));
                let r = crate::io_chaos::decide(c, crate::io_chaos::disk_ordinal(0, 1));
                (p == DiskFault::BitRot) != (r == DiskFault::BitRot)
            })
            .expect("some seed rots exactly one replica");
        let j2 = FramedJournal::new(temp("rotted-one.ckpt"), "test-v1")
            .with_replicas(2)
            .with_disk_chaos(partial);
        j2.append(0, "state a\n").unwrap();
        let ((seq, body), report) = j2.load_last_report().unwrap();
        assert_eq!((seq, body.as_str()), (0, "state a\n"));
        assert_eq!(report.damaged, 1, "the rotted copy is detected");
        for p in [
            j.path().to_path_buf(),
            replica_path(j.path(), 1),
            j2.path().to_path_buf(),
            replica_path(j2.path(), 1),
        ] {
            let _ = std::fs::remove_file(&p);
        }
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j2.path()));
    }

    #[test]
    fn empty_body_and_missing_newline_are_framed() {
        let (seq, body) = parse_framed(&frame_record("t", 0, ""), "t").unwrap();
        assert_eq!((seq, body.as_str()), (0, ""));
        let (_, body) = parse_framed(&frame_record("t", 1, "no newline"), "t").unwrap();
        assert_eq!(body, "no newline\n");
    }
}
