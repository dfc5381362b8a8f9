//! Parsing of `STTCACHE_*` environment knobs, shared by every crate that
//! reads one, so a malformed value is reported the same way everywhere.

/// Parses the environment variable `name` with `parse` (after trimming
/// whitespace); `Ok(None)` when it is unset.
///
/// # Errors
///
/// Names the variable, its value and `expected` when `parse` rejects it.
pub fn env_knob<T>(
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) => parse(v.trim())
            .map(Some)
            .ok_or_else(|| format!("{name}='{v}' is invalid: expected {expected}")),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("{name}={v:?} is invalid: expected {expected}"))
        }
    }
}

/// Reads the boolean knob `name`: unset, empty, `0` and `false` are off;
/// `1` and `true` are on.
///
/// # Errors
///
/// Names the variable and its value when it is set to anything else.
pub fn env_flag(name: &str) -> Result<bool, String> {
    let flag = env_knob(name, "0, 1, false or true", |v| match v {
        "" | "0" | "false" => Some(false),
        "1" | "true" => Some(true),
        _ => None,
    })?;
    Ok(flag.unwrap_or(false))
}
