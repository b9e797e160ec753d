//! Failure logs: the tester-side artifact consumed by diagnosis.

use std::error::Error;
use std::fmt;

use dft_logicsim::{Defect, PatternSet, SimKernel, TapeKernel};
use dft_netlist::Netlist;

/// One failing pattern: which observation points (combinational sinks, in
/// [`Netlist::combinational_sinks`] order) miscompared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternFail {
    /// Index of the failing pattern in the applied set.
    pub pattern: u32,
    /// Indices of the failing sinks, ascending.
    pub failing_sinks: Vec<u32>,
}

/// A tester failure log for one die.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureLog {
    /// Failing patterns in application order. Patterns absent from the
    /// list passed.
    pub fails: Vec<PatternFail>,
}

/// A malformed failure-log JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for JsonError {}

impl FailureLog {
    /// `true` when the die passed every pattern.
    pub fn is_clean(&self) -> bool {
        self.fails.is_empty()
    }

    /// Total failing (pattern, sink) observations.
    pub fn num_observations(&self) -> usize {
        self.fails.iter().map(|f| f.failing_sinks.len()).sum()
    }

    /// The union of failing sink indices across all patterns.
    pub fn failing_sink_union(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .fails
            .iter()
            .flat_map(|f| f.failing_sinks.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serializes to JSON (the interchange format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"fails\": [");
        for (i, fail) in self.fails.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"pattern\": ");
            out.push_str(&fail.pattern.to_string());
            out.push_str(",\n      \"failing_sinks\": [");
            for (j, s) in fail.failing_sinks.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&s.to_string());
            }
            out.push_str("]\n    }");
        }
        if !self.fails.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Parses a JSON failure log.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed token.
    pub fn from_json(s: &str) -> Result<FailureLog, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let log = p.parse_log()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(log)
    }
}

/// Minimal recursive-descent parser for the failure-log schema. The
/// interchange format is a fixed shape (`{"fails": [{"pattern": n,
/// "failing_sinks": [n, ...]}, ...]}`), so a schema-directed parser is
/// both smaller and stricter than a generic JSON reader.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect_key(&mut self, key: &str) -> Result<(), JsonError> {
        self.skip_ws();
        let quoted = format!("\"{key}\"");
        if self.bytes[self.pos..].starts_with(quoted.as_bytes()) {
            self.pos += quoted.len();
            self.expect(b':')
        } else {
            Err(self.err(format!("expected key {quoted}")))
        }
    }

    fn parse_u32(&mut self) -> Result<u32, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a non-negative integer"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are utf8")
            .parse()
            .map_err(|_| self.err("integer out of range for u32"))
    }

    fn parse_u32_array(&mut self) -> Result<Vec<u32>, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.parse_u32()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_fail(&mut self) -> Result<PatternFail, JsonError> {
        self.expect(b'{')?;
        self.expect_key("pattern")?;
        let pattern = self.parse_u32()?;
        self.expect(b',')?;
        self.expect_key("failing_sinks")?;
        let failing_sinks = self.parse_u32_array()?;
        self.expect(b'}')?;
        Ok(PatternFail {
            pattern,
            failing_sinks,
        })
    }

    fn parse_log(&mut self) -> Result<FailureLog, JsonError> {
        self.expect(b'{')?;
        self.expect_key("fails")?;
        self.expect(b'[')?;
        let mut fails = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                fails.push(self.parse_fail()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `]` in fails array")),
                }
            }
        }
        self.expect(b'}')?;
        Ok(FailureLog { fails })
    }
}

/// Simulates `defect` (a stuck-at [`dft_fault::Fault`] or a bridge) against
/// `patterns` and records every miscompare — the synthetic equivalent of
/// a tester datalog (production logs are proprietary; see DESIGN.md
/// substitutions).
pub fn build_failure_log<D: Copy + Into<Defect>>(
    nl: &Netlist,
    patterns: &PatternSet,
    defect: D,
) -> FailureLog {
    let kernel = TapeKernel::compile(nl);
    let good = kernel.eval_batch(patterns);
    let faulty = kernel.faulty_responses(patterns, &[defect]).swap_remove(0);
    let fails = good
        .iter()
        .zip(&faulty)
        .enumerate()
        .filter(|(_, (g, f))| g != f)
        .map(|(i, (g, f))| PatternFail {
            pattern: i as u32,
            failing_sinks: (0..g.len() as u32)
                .filter(|&s| g[s as usize] != f[s as usize])
                .collect(),
        })
        .collect();
    FailureLog { fails }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::Fault;
    use dft_netlist::generators::c17;

    #[test]
    fn log_round_trips_through_json() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 16, 3);
        let g10 = nl.find("G10").unwrap();
        let log = build_failure_log(&nl, &ps, Fault::stuck_at_output(g10, true));
        assert!(!log.is_clean());
        let json = log.to_json();
        let back = FailureLog::from_json(&json).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = FailureLog::default();
        assert_eq!(FailureLog::from_json(&log.to_json()).unwrap(), log);
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = FailureLog::from_json("{\"fails\": [{\"pattern\": }]}").unwrap_err();
        assert!(err.to_string().contains("integer"), "{err}");
        assert!(FailureLog::from_json("").is_err());
        assert!(FailureLog::from_json("{\"fails\": []} extra").is_err());
    }

    #[test]
    fn undetectable_fault_gives_clean_log() {
        let nl = c17();
        let mut ps = PatternSet::new(5);
        ps.push(vec![true; 5]); // single pattern that misses most faults
                                // Find a fault this pattern does not detect.
        let universe = dft_fault::universe_stuck_at(&nl);
        let sets = TapeKernel::compile(&nl).detection_sets(&ps, &universe);
        let fault = universe[sets
            .iter()
            .position(Vec::is_empty)
            .expect("some fault undetected by a single pattern")];
        let log = build_failure_log(&nl, &ps, fault);
        assert!(log.is_clean());
    }

    #[test]
    fn observations_match_detection() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 32, 9);
        let faults: Vec<Fault> = dft_fault::universe_stuck_at(&nl)
            .into_iter()
            .take(10)
            .collect();
        let sets = TapeKernel::compile(&nl).detection_sets(&ps, &faults);
        for (&fault, detecting) in faults.iter().zip(&sets) {
            let log = build_failure_log(&nl, &ps, fault);
            let failing: Vec<u32> = log.fails.iter().map(|f| f.pattern).collect();
            assert_eq!(&failing, detecting, "{fault}");
        }
    }

    #[test]
    fn sink_union_sorted_unique() {
        let log = FailureLog {
            fails: vec![
                PatternFail {
                    pattern: 0,
                    failing_sinks: vec![3, 1],
                },
                PatternFail {
                    pattern: 2,
                    failing_sinks: vec![1, 5],
                },
            ],
        };
        assert_eq!(log.failing_sink_union(), vec![1, 3, 5]);
        assert_eq!(log.num_observations(), 4);
    }
}
