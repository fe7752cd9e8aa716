//! Generated blocks of a Markdown file: the lines between a
//! `<!-- NAME:begin -->` line and a `<!-- NAME:end -->` line, which one
//! generator owns and rewrites in place. `rrfd-analyze lattice` and the
//! `experiments` binary of `rrfd-bench` keep their blocks of
//! `EXPERIMENTS.md` through [`splice_block`]; a block is current when
//! splicing its fresh rendering leaves the file unchanged.

use std::fmt;

/// Why a block could not be spliced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// No `<!-- NAME:begin -->` line.
    MissingBegin(String),
    /// No `<!-- NAME:end -->` line after the begin line.
    MissingEnd(String),
    /// A marker line of the block occurs more than once.
    Duplicated(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::MissingBegin(name) => write!(f, "no `<!-- {name}:begin -->` line"),
            BlockError::MissingEnd(name) => {
                write!(f, "no `<!-- {name}:end -->` line after its begin line")
            }
            BlockError::Duplicated(name) => write!(f, "the markers of block `{name}` repeat"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Byte offsets of the lines of `text` that are exactly `marker`.
fn marker_lines(text: &str, marker: &str) -> Vec<usize> {
    let lines = text.split_inclusive('\n').scan(0, |at, line| {
        *at += line.len();
        Some((*at - line.len(), line.trim_end_matches('\n')))
    });
    lines
        .filter(|&(_, line)| line == marker)
        .map(|(at, _)| at)
        .collect()
}

/// `text` with the body of block `name` (the lines between its marker
/// lines) replaced by `fresh`, which should end with a newline.
///
/// # Errors
///
/// A [`BlockError`] when the block's marker lines are missing, out of
/// order or repeated; `text` is then left alone.
pub fn splice_block(text: &str, name: &str, fresh: &str) -> Result<String, BlockError> {
    let begin = format!("<!-- {name}:begin -->");
    let end = format!("<!-- {name}:end -->");
    let (begins, ends) = (marker_lines(text, &begin), marker_lines(text, &end));
    let body = |b: usize| b + begin.len() + 1;
    match (begins.as_slice(), ends.as_slice()) {
        (&[b], &[e]) if e > b => Ok(format!("{}{fresh}{}", &text[..body(b)], &text[e..])),
        ([], _) => Err(BlockError::MissingBegin(name.to_owned())),
        ([_], [] | [_]) => Err(BlockError::MissingEnd(name.to_owned())),
        _ => Err(BlockError::Duplicated(name.to_owned())),
    }
}

/// The names of the blocks that begin in `text`, in order.
#[must_use]
pub fn block_names(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("<!-- ")?.strip_suffix(":begin -->"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "intro\n<!-- a:begin -->\nold\n<!-- a:end -->\n\n<!-- b:begin -->\nB\n<!-- b:end -->\n";

    #[test]
    fn splicing_replaces_only_the_body() {
        let spliced = splice_block(DOC, "a", "new\nlines\n").unwrap();
        assert_eq!(
            spliced,
            DOC.replace("\nold\n", "\nnew\nlines\n"),
            "markers and the text around them stay"
        );
    }

    #[test]
    fn an_unchanged_block_leaves_the_text_identical() {
        assert_eq!(splice_block(DOC, "a", "old\n").unwrap(), DOC);
        assert_eq!(splice_block(DOC, "b", "B\n").unwrap(), DOC);
    }

    #[test]
    fn a_missing_end_marker_is_an_error() {
        let cut = DOC.replace("<!-- a:end -->\n", "");
        assert_eq!(
            splice_block(&cut, "a", "x\n"),
            Err(BlockError::MissingEnd("a".to_owned()))
        );
        let swapped = "<!-- a:end -->\n<!-- a:begin -->\n";
        assert_eq!(
            splice_block(swapped, "a", "x\n"),
            Err(BlockError::MissingEnd("a".to_owned()))
        );
        assert_eq!(
            splice_block(DOC, "c", "x\n"),
            Err(BlockError::MissingBegin("c".to_owned()))
        );
    }

    #[test]
    fn a_duplicated_marker_is_an_error() {
        let twice = format!("{DOC}<!-- a:begin -->\n");
        assert_eq!(
            splice_block(&twice, "a", "x\n"),
            Err(BlockError::Duplicated("a".to_owned()))
        );
    }

    #[test]
    fn markers_count_only_as_whole_lines() {
        let quoted = format!("see `<!-- a:begin -->` above\n{DOC}");
        assert_eq!(splice_block(&quoted, "a", "old\n").unwrap(), quoted);
        assert_eq!(block_names(&quoted), ["a", "b"]);
    }
}
