//! Minimal hand-rolled JSON emission.
//!
//! The service's metrics snapshots and the load generator's summaries are
//! flat, fully-known shapes, so — like the bench crate's `--json` reports —
//! they are rendered by hand instead of pulling the workspace's serde
//! stack into this crate.

/// JSON string literal with the required escaping (quotes, backslash,
/// control characters) — the flight recorder's escaper, so journals,
/// metrics snapshots and bench reports share one writer.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    gridwfs_trace::push_escaped(&mut out, s);
    out
}

/// JSON number; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
