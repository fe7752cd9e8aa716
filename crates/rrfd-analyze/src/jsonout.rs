//! Minimal JSON *writing* helpers for the analyzer's `--json` outputs
//! (the workspace is dependency-free). String escaping is
//! [`rrfd_obs::json::escape`], next to the hand-rolled parser it matches;
//! this module adds array joining.

use rrfd_obs::json::escape;

/// Renders a slice of strings as a JSON array of string literals.
#[must_use]
pub fn str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_render_with_commas() {
        assert_eq!(
            str_array(&["a".into(), "b\"c".into()]),
            "[\"a\", \"b\\\"c\"]"
        );
    }
}
