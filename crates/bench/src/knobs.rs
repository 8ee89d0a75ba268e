//! The one strict reader of the harness's `SPASH_*` environment knobs.
//!
//! Three value forms exist — an integer (decimal or `0x` hex; a count
//! must be positive), a comma list of positive integers, and a named
//! choice — plus free text for revision labels. An unset knob takes its
//! default. A knob that is set to something its form does not accept, or
//! a variable inside one of the subcommand namespaces ([`KNOBS`]) that
//! is not a knob at all, ends the process with exit code 2 and a message
//! naming the knob, the value and the accepted forms: a gate that ran
//! the wrong workload is worse than one that did not run (EXPERIMENTS.md
//! has the knob table).
//!
//! The `parse_*` functions are the pure core; [`int`], [`positive`],
//! [`list`], [`choice`] and [`text`] read the process environment
//! through them.

use std::fmt;

/// Every knob the harness reads, by subcommand family:
/// `SPASH_<FAMILY>_<SUFFIX>`. The seven namespaces are closed — any other
/// variable inside one is a misspelling.
pub const KNOBS: [(&str, &[&str]); 7] = [
    ("BENCH", &["KEYS", "OPS", "SAN", "THREADS"]),
    (
        "CRASH",
        &[
            "ARENA_MB",
            "DOMAIN",
            "EXHAUSTIVE",
            "KEYS",
            "OPS",
            "POINTS",
            "SAN",
            "SEED",
            "TARGETS",
        ],
    ),
    ("PERF", &["KEYS", "OPS", "REPEATS", "REV", "SEED"]),
    ("SAN", &["DOMAIN", "KEYS", "OPS", "SEED", "TARGETS"]),
    ("SCALE", &["KEYS", "OPS", "PREEMPTIONS", "SEED", "THREADS"]),
    (
        "SCHED",
        &[
            "ARENA_MB",
            "DOMAIN",
            "KEYS",
            "MUTATE",
            "OPS",
            "PREEMPTIONS",
            "PREFILL",
            "SAN",
            "SEED0",
            "TARGETS",
            "THREADS",
        ],
    ),
    (
        "SERVICE",
        &[
            "BATCH",
            "GAP",
            "KEYS",
            "OPS",
            "PREEMPTIONS",
            "SEED",
            "SHARDS",
        ],
    ),
];

/// A rejected knob: which one, what it was set to, what it accepts.
#[derive(Debug, PartialEq, Eq)]
pub struct KnobError {
    pub name: String,
    /// `None` for a name that is not a knob.
    pub value: Option<String>,
    pub accepted: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{}={v:?}: expected {}", self.name, self.accepted),
            None => write!(f, "{}: unknown knob; {}", self.name, self.accepted),
        }
    }
}

fn bad(name: &str, value: &str, accepted: &str) -> KnobError {
    KnobError {
        name: name.to_string(),
        value: Some(value.to_string()),
        accepted: accepted.to_string(),
    }
}

fn int_token(token: &str) -> Option<u64> {
    let t = token.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}

/// An integer knob: decimal, or hex with a `0x` prefix.
pub fn parse_int(name: &str, raw: &str) -> Result<u64, KnobError> {
    int_token(raw).ok_or_else(|| bad(name, raw, "an integer (decimal or 0x hex)"))
}

/// A count knob (repeats, batch size): a positive integer.
pub fn parse_positive(name: &str, raw: &str) -> Result<u64, KnobError> {
    int_token(raw)
        .filter(|&v| v > 0)
        .ok_or_else(|| bad(name, raw, "a positive integer (decimal or 0x hex)"))
}

/// A ladder knob: a non-empty comma list of positive integers.
pub fn parse_list(name: &str, raw: &str) -> Result<Vec<usize>, KnobError> {
    raw.split(',')
        .map(|t| int_token(t).filter(|&v| v > 0).map(|v| v as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| bad(name, raw, "a comma list of positive integers (e.g. 1,8,56)"))
}

/// A named-choice knob: exactly one of `choices`' names.
pub fn parse_choice<T: Copy>(name: &str, raw: &str, choices: &[(&str, T)]) -> Result<T, KnobError> {
    choices
        .iter()
        .find(|(n, _)| *n == raw.trim())
        .map(|(_, v)| *v)
        .ok_or_else(|| {
            let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
            bad(name, raw, &format!("one of {}", names.join("|")))
        })
}

/// Reject the first of `names` that sits in a closed namespace without
/// being a knob.
pub fn check_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), KnobError> {
    for name in names {
        let Some((family, suffix)) = name.strip_prefix("SPASH_").and_then(|r| r.split_once('_'))
        else {
            continue;
        };
        let Some((_, suffixes)) = KNOBS.iter().find(|(f, _)| *f == family) else {
            continue;
        };
        if !suffixes.contains(&suffix) {
            return Err(KnobError {
                name: name.to_string(),
                value: None,
                accepted: format!("the SPASH_{family}_ knobs are {}", suffixes.join(", ")),
            });
        }
    }
    Ok(())
}

fn or_exit<T>(r: Result<T, KnobError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("spash-bench: {e}");
        std::process::exit(2);
    })
}

/// The raw value of knob `name`, `None` when unset.
pub fn text(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => Some(v.to_string_lossy().into_owned()),
    }
}

pub fn int(name: &str, default: u64) -> u64 {
    text(name).map_or(default, |raw| or_exit(parse_int(name, &raw)))
}

pub fn positive(name: &str, default: u64) -> u64 {
    text(name).map_or(default, |raw| or_exit(parse_positive(name, &raw)))
}

pub fn list(name: &str, default: &[usize]) -> Vec<usize> {
    text(name).map_or_else(|| default.to_vec(), |raw| or_exit(parse_list(name, &raw)))
}

pub fn choice<T: Copy>(name: &str, choices: &[(&str, T)], default: T) -> T {
    text(name).map_or(default, |raw| or_exit(parse_choice(name, &raw, choices)))
}

/// Exit 2 if the environment holds a misspelled knob.
pub fn reject_unknown() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .collect();
    or_exit(check_names(names.iter().map(String::as_str)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_decimal_or_hex() {
        assert_eq!(parse_int("K", "10000"), Ok(10_000));
        assert_eq!(parse_int("K", " 0xbeef "), Ok(0xbeef));
        assert_eq!(parse_int("K", "0XBEEF"), Ok(0xbeef));
        for raw in ["", "5b", "0x", "0xg", "-1", "1e3", "1,2"] {
            let e = parse_int("SPASH_PERF_SEED", raw).unwrap_err();
            assert_eq!(e.name, "SPASH_PERF_SEED");
            assert_eq!(e.value.as_deref(), Some(raw));
            assert!(e.to_string().contains("decimal or 0x hex"), "{e}");
        }
    }

    #[test]
    fn lists_reject_any_bad_element() {
        assert_eq!(parse_list("K", "1,8,56"), Ok(vec![1, 8, 56]));
        assert_eq!(parse_list("K", " 2 , 0x10 "), Ok(vec![2, 16]));
        for raw in ["1,8,5b", "", "1,,2", "1;2", "0", "1,0"] {
            let e = parse_list("SPASH_BENCH_THREADS", raw).unwrap_err();
            assert_eq!(e.value.as_deref(), Some(raw));
            assert!(e.to_string().starts_with("SPASH_BENCH_THREADS="), "{e}");
        }
    }

    #[test]
    fn counts_are_positive() {
        assert_eq!(parse_positive("K", "8"), Ok(8));
        assert_eq!(parse_positive("K", "0x10"), Ok(16));
        for raw in ["0", "0x0", "-1", ""] {
            let e = parse_positive("SPASH_SERVICE_BATCH", raw).unwrap_err();
            assert!(e.to_string().contains("positive integer"), "{e}");
        }
    }

    #[test]
    fn choices_match_exactly_and_list_the_alternatives() {
        let c = [("eadr", 0u8), ("adr", 1)];
        assert_eq!(parse_choice("K", "adr", &c), Ok(1));
        assert_eq!(parse_choice("K", " eadr ", &c), Ok(0));
        for raw in ["ADR", "basline", ""] {
            let e = parse_choice("SPASH_SCHED_DOMAIN", raw, &c).unwrap_err();
            assert_eq!(e.accepted, "one of eadr|adr");
            assert_eq!(e.value.as_deref(), Some(raw));
        }
    }

    #[test]
    fn closed_namespaces_reject_strangers_and_ignore_the_rest() {
        assert_eq!(
            check_names(["SPASH_CRASH_OPS", "SPASH_SCHED_SEED0"]),
            Ok(())
        );
        assert_eq!(
            check_names([
                "PATH",
                "SPASH_OTHER_THING",
                "SPASH_BENCH",
                "XSPASH_CRASH_OPZ"
            ]),
            Ok(())
        );
        let e = check_names(["SPASH_CRASH_OPS", "SPASH_CRASH_OPZ"]).unwrap_err();
        assert_eq!(
            (e.name.as_str(), e.value.clone()),
            ("SPASH_CRASH_OPZ", None)
        );
        assert!(e.to_string().contains("OPS"), "{e}");
        assert!(!e.to_string().contains("MUTATE"), "{e}");
        assert!(check_names(["SPASH_BENCH_"]).is_err());
    }

    #[test]
    fn all_46_knobs_are_listed_once() {
        assert_eq!(KNOBS.iter().map(|(_, s)| s.len()).sum::<usize>(), 46);
        for (f, suffixes) in KNOBS {
            assert!(suffixes.windows(2).all(|w| w[0] < w[1]), "{f}");
            let names: Vec<String> = suffixes.iter().map(|s| format!("SPASH_{f}_{s}")).collect();
            assert_eq!(check_names(names.iter().map(String::as_str)), Ok(()));
        }
    }
}
