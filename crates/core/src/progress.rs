//! Terminal live-progress line for long flow runs.
//!
//! [`ProgressLine::spawn`] starts a background thread that polls the
//! flow's [`TraceHandle`](dft_trace::TraceHandle) for the current phase
//! and the [`MetricsHandle`](dft_metrics::MetricsHandle) for fault and
//! pattern counters, rewriting a single spinner line on stderr roughly
//! ten times a second. The line is only drawn when stderr is an
//! interactive terminal (tests force it onto a writer of their own); in
//! pipes and CI logs the reporter is a silent no-op. [`ProgressLine::finish`] stops
//! the thread and clears the line so the final report starts on a
//! clean row.
//!
//! Two consumers beyond the flow commands live here too: a process-wide
//! suppression latch ([`set_suppressed`]) so the one-line spinner stays
//! out of the way when richer live output owns the terminal (`aidft
//! top`, or a serve run publishing a `--stats-addr` scrape endpoint),
//! and [`Dashboard`], the multi-line redraw primitive `aidft top`
//! renders its fleet view with.

use std::io::{self, IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dft_metrics::MetricsHandle;
use dft_trace::TraceHandle;

const SPINNER: [char; 4] = ['|', '/', '-', '\\'];
const POLL: Duration = Duration::from_millis(100);

/// Process-wide latch: while set, [`ProgressLine::spawn`] (and the
/// forced variant) return no-op handles and a live reporter stops
/// drawing. Set by commands whose own live output would fight the
/// spinner for the terminal.
static SUPPRESSED: AtomicBool = AtomicBool::new(false);

/// Suppresses (or re-enables) the progress line process-wide.
pub fn set_suppressed(on: bool) {
    SUPPRESSED.store(on, Ordering::Release);
}

/// `true` while the progress line is suppressed.
pub fn is_suppressed() -> bool {
    SUPPRESSED.load(Ordering::Acquire)
}

/// Handle to a running progress reporter thread.
///
/// Dropping the handle without calling [`ProgressLine::finish`] also
/// stops the thread and clears the line.
pub struct ProgressLine {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ProgressLine {
    /// Starts the reporter on stderr if stderr is a terminal; otherwise
    /// returns a no-op handle. `trace` supplies the phase name (use a
    /// `phases_only` session when full tracing is not wanted) and
    /// `metrics` the live counters.
    pub fn spawn(trace: TraceHandle, metrics: MetricsHandle) -> ProgressLine {
        let err = io::stderr();
        let active = err.is_terminal();
        ProgressLine::spawn_inner(trace, metrics, active, err)
    }

    /// Like [`ProgressLine::spawn`] but draws to `out` whether or not it
    /// is a terminal, so tests can exercise the thread without one.
    pub fn spawn_forced<W: Write + Send + 'static>(
        trace: TraceHandle,
        metrics: MetricsHandle,
        out: W,
    ) -> ProgressLine {
        ProgressLine::spawn_inner(trace, metrics, true, out)
    }

    fn spawn_inner<W: Write + Send + 'static>(
        trace: TraceHandle,
        metrics: MetricsHandle,
        active: bool,
        mut out: W,
    ) -> ProgressLine {
        if !active || !trace.is_enabled() || is_suppressed() {
            return ProgressLine {
                stop: Arc::new(AtomicBool::new(true)),
                thread: None,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut tick = 0usize;
            while !stop2.load(Ordering::Acquire) {
                if is_suppressed() {
                    std::thread::sleep(POLL);
                    continue;
                }
                let line = render(&trace, &metrics, SPINNER[tick % SPINNER.len()]);
                // Pad-and-return keeps a shrinking line from leaving
                // stale characters behind.
                let _ = out.write_all(format!("\r{line:<70}\r").as_bytes());
                let _ = out.flush();
                tick += 1;
                std::thread::sleep(POLL);
            }
            let _ = out.write_all(format!("\r{:70}\r", "").as_bytes());
            let _ = out.flush();
        });
        ProgressLine {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the reporter thread and clears the line.
    pub fn finish(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ProgressLine {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Multi-line terminal redraw for live dashboards (`aidft top`): each
/// [`Dashboard::draw`] replaces the previously drawn block in place
/// (cursor-up + erase-below) in TTY mode, and degrades to plain
/// appended lines in pipes and CI logs. [`Dashboard::new`] draws to
/// stderr so stdout stays machine-readable; [`Dashboard::with_writer`]
/// draws anywhere else.
pub struct Dashboard<W: Write = io::Stderr> {
    out: W,
    tty: bool,
    lines_drawn: usize,
}

impl Dashboard {
    /// A dashboard on stderr that redraws in place when stderr is a
    /// terminal.
    pub fn new() -> Dashboard {
        let err = io::stderr();
        let tty = err.is_terminal();
        Dashboard::with_writer(err, tty)
    }
}

impl<W: Write> Dashboard<W> {
    /// A dashboard drawing to `out`, redrawing in place when `tty`.
    pub fn with_writer(out: W, tty: bool) -> Dashboard<W> {
        Dashboard {
            out,
            tty,
            lines_drawn: 0,
        }
    }

    /// Draws one frame, replacing the previous one in TTY mode. The
    /// frame goes out in one write, so other writers to the same stream
    /// cannot split it.
    pub fn draw(&mut self, lines: &[String]) {
        let mut frame = self.erase_sequence();
        for line in lines {
            frame.push_str(line);
            frame.push('\n');
        }
        self.emit(&frame);
        self.lines_drawn = if self.tty { lines.len() } else { 0 };
    }

    /// Erases the last frame (TTY mode; a no-op in pipes, where the
    /// frames are part of the log).
    pub fn clear(&mut self) {
        let erase = self.erase_sequence();
        if !erase.is_empty() {
            self.emit(&erase);
            self.lines_drawn = 0;
        }
    }

    /// Cursor-up over the drawn block plus erase-below, or nothing when
    /// there is no block to replace.
    fn erase_sequence(&self) -> String {
        if self.tty && self.lines_drawn > 0 {
            format!("\x1b[{}A\x1b[J", self.lines_drawn)
        } else {
            String::new()
        }
    }

    fn emit(&mut self, bytes: &str) {
        let _ = self.out.write_all(bytes.as_bytes());
        let _ = self.out.flush();
    }
}

impl Default for Dashboard {
    fn default() -> Dashboard {
        Dashboard::new()
    }
}

/// One progress-line snapshot (exposed for tests; the thread calls this
/// every poll).
pub fn render(trace: &TraceHandle, metrics: &MetricsHandle, spinner: char) -> String {
    let phase = trace.current_phase().unwrap_or("starting");
    match metrics.get() {
        Some(m) => {
            let patterns = m.atpg_patterns.get() + m.bist_patterns.get();
            let faults = m.faultsim_detected.get() + m.transition_detected.get();
            format!(
                "{spinner} {phase}: {} patterns, {} faults detected, {} podem calls",
                patterns,
                faults,
                m.podem_calls.get()
            )
        }
        None => format!("{spinner} {phase}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_trace::{TraceConfig, TraceSession};
    use std::sync::Mutex;

    /// Tests that spawn reporters or toggle the process-wide
    /// suppression latch serialize here — the harness runs tests
    /// concurrently in one process.
    static TTY_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn render_reports_phase_and_counters() {
        let session = TraceSession::new(TraceConfig::phases_only());
        let trace = session.handle();
        let metrics = MetricsHandle::enabled();
        let _phase = trace.phase_span("atpg_random");
        metrics.get().unwrap().atpg_patterns.add(7);
        metrics.get().unwrap().podem_calls.add(3);
        let line = render(&trace, &metrics, '|');
        assert!(line.contains("atpg_random"), "line: {line}");
        assert!(line.contains("7 patterns"), "line: {line}");
        assert!(line.contains("3 podem calls"), "line: {line}");
    }

    #[test]
    fn disabled_trace_spawns_no_thread() {
        let p = ProgressLine::spawn_forced(
            TraceHandle::disabled(),
            MetricsHandle::disabled(),
            io::sink(),
        );
        assert!(p.thread.is_none());
        p.finish();
    }

    #[test]
    fn spawned_reporter_stops_cleanly() {
        let _lock = TTY_TESTS.lock().unwrap();
        let session = TraceSession::new(TraceConfig::phases_only());
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled(), io::sink());
        assert!(p.thread.is_some());
        std::thread::sleep(Duration::from_millis(30));
        p.finish();
    }

    #[test]
    fn suppression_latch_blocks_the_reporter() {
        let _lock = TTY_TESTS.lock().unwrap();
        let session = TraceSession::new(TraceConfig::phases_only());
        set_suppressed(true);
        assert!(is_suppressed());
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled(), io::sink());
        assert!(p.thread.is_none(), "suppressed spawn must be a no-op");
        p.finish();
        set_suppressed(false);
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled(), io::sink());
        assert!(p.thread.is_some());
        p.finish();
    }

    #[test]
    fn dashboard_tracks_drawn_block_height() {
        let mut d = Dashboard::with_writer(Vec::new(), false);
        d.draw(&["a".into(), "b".into()]);
        d.draw(&["c".into()]);
        d.clear();
        assert_eq!(d.lines_drawn, 0, "pipes never redraw in place");
        assert_eq!(d.out, b"a\nb\nc\n", "pipes only append");

        let mut d = Dashboard::with_writer(Vec::new(), true);
        d.draw(&["a".into(), "b".into(), "c".into()]);
        assert_eq!(d.lines_drawn, 3);
        assert_eq!(d.out, b"a\nb\nc\n", "the first frame has nothing to erase");
        d.out.clear();
        d.draw(&["a".into()]);
        assert_eq!(d.lines_drawn, 1);
        assert_eq!(d.out, b"\x1b[3A\x1b[Ja\n");
        d.out.clear();
        d.clear();
        assert_eq!(d.lines_drawn, 0);
        assert_eq!(d.out, b"\x1b[1A\x1b[J");
        d.out.clear();
        d.clear();
        assert!(d.out.is_empty(), "nothing left to erase");
    }
}
