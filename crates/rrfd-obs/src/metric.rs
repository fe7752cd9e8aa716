//! Dense metric ids: the closed [`crate::names`] registry, interned.
//!
//! Every sample is keyed by `(metric, process, round)`, and the metric
//! half of that key comes from a closed list of names. Interning the list
//! turns a metric into a small integer, so a recorder can index a dense
//! per-metric table instead of hashing a string per sample. Hot paths
//! (the round engine, the conformance monitor, the batch pool) name their
//! metrics by id constants resolved at compile time; the string-keyed
//! [`crate::Recorder`] methods resolve through [`MetricId::lookup`].

use crate::names::ALL;

/// A registered metric: its position in [`crate::names::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(u16);

/// Slots in the compile-time lookup table (a power of two, about four
/// times the registry size, so probe chains stay short).
const INDEX_BITS: u32 = 8;
const INDEX_SLOTS: usize = 1 << INDEX_BITS;
const EMPTY: u16 = u16::MAX;

/// Eight bytes of `bytes` from `at`, little-endian, zero past the end.
const fn word(bytes: &[u8], at: usize) -> u64 {
    if at + 8 <= bytes.len() {
        return u64::from_le_bytes([
            bytes[at],
            bytes[at + 1],
            bytes[at + 2],
            bytes[at + 3],
            bytes[at + 4],
            bytes[at + 5],
            bytes[at + 6],
            bytes[at + 7],
        ]);
    }
    let mut w = 0u64;
    let mut i = 0;
    while at + i < bytes.len() && i < 8 {
        w |= (bytes[at + i] as u64) << (8 * i);
        i += 1;
    }
    w
}

/// The name's home slot: a multiplicative hash of its length and two
/// eight-byte words (middle and tail). Registered names all share the
/// `rrfd_` prefix, so the prefix is not worth reading; two word loads
/// keep the lookup to a few instructions.
const fn home_slot(name: &str) -> usize {
    let bytes = name.as_bytes();
    let len = bytes.len();
    let (mid, tail) = if len >= 8 {
        (word(bytes, len / 2 - 4), word(bytes, len - 8))
    } else {
        (word(bytes, 0), 0)
    };
    let key = mid ^ tail.rotate_left(32) ^ len as u64;
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - INDEX_BITS)) as usize
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Open-addressed `hash → id` table over the registry, built by the
/// compiler.
static INDEX: [u16; INDEX_SLOTS] = {
    let mut table = [EMPTY; INDEX_SLOTS];
    let mut id = 0;
    while id < ALL.len() {
        let mut slot = home_slot(ALL[id]);
        while table[slot] != EMPTY {
            slot = (slot + 1) % INDEX_SLOTS;
        }
        table[slot] = id as u16;
        id += 1;
    }
    table
};

impl MetricId {
    /// The number of registered metrics; ids are `0..COUNT`.
    pub const COUNT: usize = ALL.len();

    /// The id of the registered metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the registry. Use it to define
    /// constants, where the check runs at compile time:
    ///
    /// ```
    /// use rrfd_obs::{names, MetricId};
    ///
    /// const ROUNDS: MetricId = MetricId::of(names::ENGINE_ROUNDS);
    /// assert_eq!(ROUNDS.name(), names::ENGINE_ROUNDS);
    /// ```
    #[must_use]
    pub const fn of(name: &str) -> MetricId {
        let mut id = 0;
        while id < ALL.len() && !str_eq(ALL[id], name) {
            id += 1;
        }
        assert!(id < ALL.len(), "metric name is not in rrfd_obs::names::ALL");
        MetricId(id as u16)
    }

    /// The id of `name`, or `None` when it is not registered: a hash of
    /// two words of the name and a short probe in a table built at
    /// compile time.
    #[must_use]
    pub fn lookup(name: &str) -> Option<MetricId> {
        let mut slot = home_slot(name);
        loop {
            let id = INDEX[slot];
            if id == EMPTY {
                return None;
            }
            if ALL[usize::from(id)] == name {
                return Some(MetricId(id));
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }

    /// The metric's registered name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        ALL[self.0 as usize]
    }

    /// The dense index, `0..COUNT`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn every_registered_name_round_trips() {
        for (index, name) in ALL.iter().enumerate() {
            let id = MetricId::lookup(name).expect("registered");
            assert_eq!(id.index(), index);
            assert_eq!(id.name(), *name);
            assert_eq!(MetricId::of(name), id);
        }
    }

    #[test]
    fn unregistered_names_have_no_id() {
        assert_eq!(MetricId::lookup("m"), None);
        assert_eq!(MetricId::lookup(""), None);
        assert_eq!(MetricId::lookup("rrfd_engine_rounds"), None);
        assert_eq!(MetricId::lookup("rrfd_engine_rounds_total_"), None);
    }

    #[test]
    fn constants_resolve_at_compile_time() {
        const DECISIONS: MetricId = MetricId::of(names::ENGINE_DECISIONS);
        assert_eq!(DECISIONS.name(), names::ENGINE_DECISIONS);
    }

    #[test]
    #[should_panic(expected = "not in rrfd_obs::names::ALL")]
    fn of_rejects_unregistered_names() {
        let _ = MetricId::of(std::hint::black_box("not_a_metric"));
    }
}
