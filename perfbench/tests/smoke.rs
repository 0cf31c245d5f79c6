//! Every workload at smoke scale, untraced and traced: the tally balances,
//! every metric `BENCHMARK.json` names is printed with its unit, and a
//! corrupted reference answer counts as a failure.

use json::Json;
use mnn_perfbench::workload::NAMES;
use mnn_perfbench::{run, Options, Report};
use std::sync::Mutex;

/// Runs share the host's two CPUs with their daemons; one at a time keeps
/// the generator inside its lag bound.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, trace: bool, corrupt_reference: bool) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
        corrupt_reference,
    })
    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn check(workload: &str, trace: bool) {
    let report = smoke(workload, trace, false);
    let t = report.tally;
    assert_eq!(
        t.sent,
        t.answered + t.refused + t.errored + t.lost,
        "{workload}: the tally must balance: {t:?}"
    );
    assert_eq!(t.failed(), 0, "{workload}: {t:?}");
    let line = Json::parse(&report.json_line()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        line.get("attempted").and_then(Json::as_f64),
        Some(t.sent as f64)
    );
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object missing");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn interactive_untraced_and_traced() {
    check("interactive", false);
    check("interactive", true);
}

#[test]
fn saturate_untraced_and_traced() {
    check("saturate", false);
    check("saturate", true);
}

#[test]
fn ingest_untraced_and_traced() {
    check("ingest", false);
    check("ingest", true);
}

#[test]
fn a_corrupted_reference_answer_is_a_failure() {
    for workload in NAMES {
        let report = smoke(workload, false, true);
        assert!(report.tally.wrong > 0, "{workload}: {:?}", report.tally);
        assert!(!report.correct());
        let line = Json::parse(&report.json_line()).expect("JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            line.get("failed").and_then(Json::as_f64),
            Some(report.tally.failed() as f64)
        );
    }
}

/// A minimal JSON reader for `BENCHMARK.json` and the result line (the
/// benchmark depends on no crate outside the repository).
mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object (keys sorted).
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// Parses one complete JSON document.
        ///
        /// # Errors
        ///
        /// A description of the first syntax error.
        pub fn parse(text: &str) -> Result<Json, String> {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i != p.s.len() {
                return Err(format!("trailing bytes at {}", p.i));
            }
            Ok(v)
        }

        /// Field `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// The string inside, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The number inside, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> Result<(), String> {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("expected '{lit}' at {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                None => Err("unexpected end".into()),
                Some(b'{') => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Json::Obj(m));
                    }
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        self.eat(":")?;
                        let v = self.value()?;
                        m.insert(k, v);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Json::Obj(m));
                            }
                            _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut a = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Json::Arr(a));
                    }
                    loop {
                        a.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Json::Arr(a));
                            }
                            _ => return Err(format!("expected ',' or ']' at {}", self.i)),
                        }
                    }
                }
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
                Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
                Some(b'n') => self.eat("null").map(|()| Json::Null),
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number at {start}"))
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat("\"")?;
            let mut out = String::new();
            loop {
                let Some(&c) = self.s.get(self.i) else {
                    return Err("unterminated string".into());
                };
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.i += 4;
                            }
                            other => out.push(other as char),
                        }
                    }
                    _ => {
                        // Re-decode multi-byte UTF-8 sequences whole.
                        let start = self.i - 1;
                        let len = match c {
                            0xF0..=0xFF => 4,
                            0xE0..=0xEF => 3,
                            0xC0..=0xDF => 2,
                            _ => 1,
                        };
                        let chunk = std::str::from_utf8(&self.s[start..start + len])
                            .map_err(|e| e.to_string())?;
                        out.push_str(chunk);
                        self.i = start + len;
                    }
                }
            }
        }
    }
}
