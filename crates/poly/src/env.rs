//! Environment-variable knob parsing shared across the workspace
//! (`F1_SCALE`, `F1_BASELINE_REPS`, …).
//!
//! The knobs used to be read with `.parse().ok().unwrap_or(default)`,
//! which silently swallowed typos: `F1_SCALE=ful` ran the reduced suite
//! while claiming full size. A malformed value is operator error and
//! panics here with the variable name and the offending text; only an
//! *absent* variable falls back to the default.

use std::fmt::Display;
use std::str::FromStr;

/// Parses an already-read value (`None` = variable absent). Split from
/// [`parse_env_or`] so tests can exercise the policy without mutating
/// process-global environment state.
pub fn parse_env_value<T>(var: &str, value: Option<&str>, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    match value {
        None => default,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(e) => panic!("{var}={s:?} is not a valid value: {e}"),
        },
    }
}

/// Reads and parses the environment variable `var`, falling back to
/// `default` only when it is unset.
///
/// # Panics
///
/// Panics when the variable is set but malformed (including non-unicode
/// content) — a misspelled knob must not silently run with the default.
pub fn parse_env_or<T>(var: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    match std::env::var(var) {
        Ok(s) => parse_env_value(var, Some(&s), default),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("{var} holds non-unicode content")
        }
    }
}

/// [`parse_env_or`] for counts that must be ≥ 1 (scales, repetition
/// counts): `0` is rejected as malformed rather than clamped.
///
/// # Panics
///
/// Panics when the variable is set but malformed or zero.
pub fn parse_env_nonzero_or(var: &str, default: usize) -> usize {
    let v = parse_env_or(var, default);
    assert!(v >= 1, "{var}=0 is not a valid value: must be >= 1");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_variable_falls_back() {
        assert_eq!(parse_env_value("F1_TEST", None, 8usize), 8);
    }

    #[test]
    fn present_value_overrides() {
        assert_eq!(parse_env_value("F1_TEST", Some("3"), 8usize), 3);
        assert_eq!(parse_env_value("F1_TEST", Some("0"), 8usize), 0);
    }

    #[test]
    #[should_panic(expected = "F1_TEST=\"ful\" is not a valid value")]
    fn malformed_value_panics() {
        parse_env_value("F1_TEST", Some("ful"), 8usize);
    }

    #[test]
    #[should_panic(expected = "not a valid value")]
    fn empty_value_panics() {
        parse_env_value("F1_TEST", Some(""), 8usize);
    }

    #[test]
    #[should_panic(expected = "not a valid value")]
    fn negative_count_panics() {
        parse_env_value("F1_TEST", Some("-2"), 8usize);
    }

    #[test]
    fn unset_nonzero_keeps_default() {
        // The variable is never set in the test environment.
        assert_eq!(parse_env_nonzero_or("F1_ENV_TEST_UNSET_KNOB", 2), 2);
    }
}
