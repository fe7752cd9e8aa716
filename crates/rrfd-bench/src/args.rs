//! The command-line parsing the bench binaries share: flags taken out of
//! the argument list one at a time, so whatever is left over is an
//! unexpected argument.

use std::str::FromStr;

/// Removes `flag` from `args`, returning whether it was there.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `flag` and the value after it from `args`: `None` when the
/// flag is absent, an empty string when it is the last argument.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    Some(if i < args.len() {
        args.remove(i)
    } else {
        String::new()
    })
}

/// Parses the value of `flag` as a positive integer.
///
/// # Errors
///
/// A message naming the flag and the value when it is not one.
pub fn positive<T: FromStr + Default + PartialOrd>(flag: &str, value: &str) -> Result<T, String> {
    match value.parse() {
        Ok(v) if v > T::default() => Ok(v),
        _ => Err(format!("{flag} needs a positive integer, got {value:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn flags_and_values_leave_the_rest() {
        let mut list = args(&["--quick", "--shards", "2", "extra", "--mix"]);
        assert!(take_flag(&mut list, "--quick"));
        assert!(!take_flag(&mut list, "--quick"));
        assert_eq!(take_value(&mut list, "--shards").as_deref(), Some("2"));
        assert_eq!(take_value(&mut list, "--mix").as_deref(), Some(""));
        assert_eq!(take_value(&mut list, "--out"), None);
        assert_eq!(list, ["extra"]);
    }

    #[test]
    fn positive_rejects_zero_and_junk() {
        assert_eq!(positive::<u64>("--instances", "7"), Ok(7));
        for bad in ["0", "-1", "x", ""] {
            let err = positive::<usize>("--shards", bad).expect_err(bad);
            assert_eq!(
                err,
                format!("--shards needs a positive integer, got {bad:?}")
            );
        }
    }
}
