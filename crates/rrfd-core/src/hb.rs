//! Happens-before machinery shared by the analysis and exploration layers.
//!
//! A [`VectorClock`] over `k` actors orders events by causality: event `a`
//! happens-before event `b` exactly when `a`'s clock is pointwise ≤ `b`'s.
//! The race checker in `rrfd-analyze` uses clocks over
//! `coordinator + processes`; the DPOR execution graph's test oracle uses
//! clocks over the process universe of one simulated run. Both need the
//! same operations — `tick`, `join`, `le`, `concurrent_with` — so the type
//! lives here, on the crate every other layer already depends on.

/// A vector clock over a fixed universe of `k` actors.
///
/// Component `i` counts the events actor `i` has causally contributed to
/// the history summarized by this clock. Clocks attached to events along a
/// run are monotone under happens-before, so `a → b` iff
/// [`VectorClock::le`] holds from `a`'s clock to `b`'s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock over `k` actors: no events observed.
    #[must_use]
    pub fn zero(k: usize) -> Self {
        VectorClock(vec![0; k])
    }

    /// Number of actors this clock ranges over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the clock ranges over zero actors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The component for `actor`.
    ///
    /// # Panics
    ///
    /// Panics when `actor >= self.len()`.
    #[must_use]
    pub fn get(&self, actor: usize) -> u64 {
        self.0[actor]
    }

    /// Advances `actor`'s own component by one — called when `actor`
    /// performs an event.
    ///
    /// # Panics
    ///
    /// Panics when `actor >= self.len()`.
    pub fn tick(&mut self, actor: usize) {
        self.0[actor] += 1;
    }

    /// Pointwise maximum with `other` — called when the event this clock
    /// describes causally observes the event `other` describes.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` pointwise: the event carrying `self` happens-before
    /// (or equals) the event carrying `other`.
    #[must_use]
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Neither clock dominates the other: the two events are causally
    /// concurrent.
    #[must_use]
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_le_form_happens_before() {
        let mut a = VectorClock::zero(3);
        a.tick(0);
        let mut b = a.clone();
        b.tick(1); // b observed a, then acted: a → b
        assert!(a.le(&b));
        assert!(!b.le(&a));

        let mut c = VectorClock::zero(3);
        c.tick(2); // independent of both
        assert!(a.concurrent_with(&c));
        assert!(b.concurrent_with(&c));

        let mut d = c.clone();
        d.join(&b);
        d.tick(2); // d observed b and c
        assert!(b.le(&d));
        assert!(c.le(&d));
        assert!(!d.le(&b));
    }

    #[test]
    fn zero_is_below_everything() {
        let z = VectorClock::zero(4);
        let mut e = VectorClock::zero(4);
        e.tick(3);
        assert!(z.le(&e));
        assert!(z.le(&z));
        assert_eq!(z.len(), 4);
        assert!(!z.is_empty());
        assert_eq!(e.get(3), 1);
    }
}
