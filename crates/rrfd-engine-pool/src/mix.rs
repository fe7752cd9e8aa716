//! Mix specifications: which protocol/predicate/adversary combinations a
//! batch runs, in what proportions, and the concrete [`InstanceClass`]es
//! they denote.
//!
//! A batch is rarely homogeneous — the service-shaped question is "what
//! throughput do we sustain over a *mix* of tenants": different
//! protocols, different system sizes, different adversaries, some of
//! them failing. A [`MixSpec`] captures that as a weighted list of
//! classes, parsed from a compact spec string:
//!
//! ```text
//! kset:n=8:k=2:w=3,floodmin:n=6:f=2,stall:n=4:rounds=4:w=1
//! ```
//!
//! Each comma-separated entry is `name[:key=value]*`. Recognised names
//! and their parameters:
//!
//! | name        | protocol                  | model / adversary                    | keys |
//! |-------------|---------------------------|--------------------------------------|------|
//! | `kset`      | `OneRoundKSet`            | `KUncertainty(n,k)` / random         | `n`, `k` |
//! | `floodmin`  | `FloodMin`                | `Crash(n,f)` / random                | `n`, `f`, `k` |
//! | `sconsensus`| `SRotatingConsensus`      | `DetectorS(n)` / random              | `n` |
//! | `early`     | `EarlyStoppingConsensus`  | `Crash(n,f)` / staggered crash       | `n`, `f` |
//! | `stall`     | never decides             | `AnyPattern(n)` / fault-free         | `n`, `rounds` |
//!
//! `w` (weight, default 1) sets the class's share of instances: global
//! instance id `i` belongs to the class owning residue `i mod Σw`, so
//! proportions are exact and assignment is deterministic — every shard
//! count of the batch pool agrees on which instance is which without
//! communicating. `stall` instances never decide and abort with
//! [`rrfd_core::EngineError::RoundLimitExceeded`] after `rounds` rounds
//! (default 4): a mix containing them exercises the pool's guarantee
//! that a failing instance never poisons its shard.

use crate::pool::InstanceClass;
use rrfd_core::task::Value;
use rrfd_core::{
    AnyPattern, Control, Delivery, Round, RoundProtocol, SystemSize, DEFAULT_MAX_ROUNDS,
};
use rrfd_models::adversary::{NoFailures, RandomAdversary, StaggeredCrash};
use rrfd_models::predicates::{Crash, DetectorS, KUncertainty};
use rrfd_protocols::early_stopping::EarlyStoppingConsensus;
use rrfd_protocols::kset::{FloodMin, OneRoundKSet};
use rrfd_protocols::s_consensus::SRotatingConsensus;
use std::fmt;

/// The protocol/model families a mix entry can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// `OneRoundKSet` under `KUncertainty(n, k)`, random adversary.
    KSet,
    /// `FloodMin` under `Crash(n, f)`, random adversary.
    FloodMin,
    /// `SRotatingConsensus` under `DetectorS(n)`, random adversary.
    SConsensus,
    /// `EarlyStoppingConsensus` under `Crash(n, f)`, staggered crashes.
    Early,
    /// A never-deciding protocol under `AnyPattern(n)`: every instance
    /// aborts with `RoundLimitExceeded` after its round budget.
    Stall,
}

impl ClassKind {
    /// The spec-string name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ClassKind::KSet => "kset",
            ClassKind::FloodMin => "floodmin",
            ClassKind::SConsensus => "sconsensus",
            ClassKind::Early => "early",
            ClassKind::Stall => "stall",
        }
    }
}

/// One parsed mix entry: a class kind with its parameters and weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// The protocol/model family.
    pub kind: ClassKind,
    /// System size.
    pub n: SystemSize,
    /// Agreement parameter `k` (`kset`, `floodmin`).
    pub k: usize,
    /// Failure bound `f` (`floodmin`, `early`).
    pub f: usize,
    /// Share of instances relative to the mix's total weight.
    pub weight: u32,
    /// Round budget for `stall` instances.
    pub stall_rounds: u32,
}

impl ClassSpec {
    /// The engine round limit this class runs under.
    #[must_use]
    pub fn max_rounds(&self) -> u32 {
        match self.kind {
            ClassKind::Stall => self.stall_rounds,
            _ => DEFAULT_MAX_ROUNDS,
        }
    }
}

impl fmt::Display for ClassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:n={}", self.kind.name(), self.n.get())?;
        match self.kind {
            ClassKind::KSet => write!(f, ":k={}", self.k)?,
            ClassKind::FloodMin => write!(f, ":f={}:k={}", self.f, self.k)?,
            ClassKind::Early => write!(f, ":f={}", self.f)?,
            ClassKind::Stall => write!(f, ":rounds={}", self.stall_rounds)?,
            ClassKind::SConsensus => {}
        }
        write!(f, ":w={}", self.weight)
    }
}

/// A weighted list of instance classes — the tenant population of one
/// batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSpec {
    classes: Vec<ClassSpec>,
    total_weight: u64,
}

/// Why a mix spec string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixError(String);

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad mix spec: {}", self.0)
    }
}

impl std::error::Error for MixError {}

fn err(message: impl Into<String>) -> MixError {
    MixError(message.into())
}

impl MixSpec {
    /// Parses a comma-separated spec string (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// [`MixError`] on an unknown class name or key, an unparsable
    /// value, or parameters violating a model's definedness constraints
    /// (`kset` needs `1 ≤ k < n`, crash families need `f < n`, weights
    /// and stall budgets must be ≥ 1).
    pub fn parse(spec: &str) -> Result<MixSpec, MixError> {
        let mut classes = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            classes.push(parse_entry(entry)?);
        }
        MixSpec::from_classes(classes)
    }

    /// Builds a mix from already-constructed entries.
    ///
    /// # Errors
    ///
    /// [`MixError`] when `classes` is empty.
    pub fn from_classes(classes: Vec<ClassSpec>) -> Result<MixSpec, MixError> {
        if classes.is_empty() {
            return Err(err("a mix needs at least one class"));
        }
        let total_weight = classes.iter().map(|c| u64::from(c.weight)).sum();
        Ok(MixSpec {
            classes,
            total_weight,
        })
    }

    /// The serve harness's default mix: all five classes, small systems,
    /// decided classes weighted 2:2:2:2 against one share of `stall`.
    #[must_use]
    pub fn default_mix() -> MixSpec {
        match MixSpec::parse(Self::DEFAULT_SPEC) {
            Ok(mix) => mix,
            // The constant is parsed by a unit test; an empty mix cannot
            // be produced from it.
            Err(_) => MixSpec {
                classes: Vec::new(),
                total_weight: 0,
            },
        }
    }

    /// The spec string [`MixSpec::default_mix`] parses.
    pub const DEFAULT_SPEC: &'static str = "kset:n=8:k=2:w=2,floodmin:n=6:f=2:k=1:w=2,\
         sconsensus:n=5:w=2,early:n=6:f=2:w=2,stall:n=4:rounds=4:w=1";

    /// The parsed entries, in spec order.
    #[must_use]
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// The class index owning global instance `id`: weights partition
    /// the residues of `id mod Σw` in spec order.
    #[must_use]
    pub fn class_of(&self, id: u64) -> usize {
        let mut residue = id % self.total_weight.max(1);
        for (index, class) in self.classes.iter().enumerate() {
            let w = u64::from(class.weight);
            if residue < w {
                return index;
            }
            residue -= w;
        }
        self.classes.len().saturating_sub(1)
    }
}

impl std::fmt::Display for MixSpec {
    /// Renders the spec string this mix parses back from (class specs
    /// joined by commas).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, class) in self.classes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{class}")?;
        }
        Ok(())
    }
}

/// `value` as a `u32`, or an error naming `key` when it does not fit.
fn narrow(key: &str, value: u64) -> Result<u32, MixError> {
    u32::try_from(value).map_err(|_| err(format!("`{key}` must fit in 32 bits, got {value}")))
}

fn parse_entry(entry: &str) -> Result<ClassSpec, MixError> {
    let mut parts = entry.split(':');
    let name = parts.next().unwrap_or_default();
    let kind = match name {
        "kset" => ClassKind::KSet,
        "floodmin" => ClassKind::FloodMin,
        "sconsensus" => ClassKind::SConsensus,
        "early" => ClassKind::Early,
        "stall" => ClassKind::Stall,
        other => return Err(err(format!("unknown class `{other}`"))),
    };
    let mut n = 4usize;
    let mut k = 1usize;
    let mut f = 1usize;
    let mut weight = 1u32;
    let mut stall_rounds = 4u32;
    for part in parts {
        let Some((key, value)) = part.split_once('=') else {
            return Err(err(format!("expected key=value, got `{part}`")));
        };
        let parsed: u64 = value
            .parse()
            .map_err(|_| err(format!("`{key}` needs an integer, got `{value}`")))?;
        match key {
            "n" => n = parsed as usize,
            "k" => k = parsed as usize,
            "f" => f = parsed as usize,
            "w" => weight = narrow(key, parsed)?,
            "rounds" => stall_rounds = narrow(key, parsed)?,
            other => return Err(err(format!("unknown key `{other}` for `{name}`"))),
        }
    }
    let n = SystemSize::new(n).map_err(|e| err(format!("{name}: {e}")))?;
    if weight == 0 {
        return Err(err(format!("{name}: weight must be ≥ 1")));
    }
    match kind {
        ClassKind::KSet => {
            if k == 0 || k >= n.get() {
                return Err(err(format!(
                    "kset needs 1 ≤ k < n, got k={k} n={}",
                    n.get()
                )));
            }
        }
        ClassKind::FloodMin => {
            if f >= n.get() {
                return Err(err(format!(
                    "floodmin needs f < n, got f={f} n={}",
                    n.get()
                )));
            }
            if k == 0 {
                return Err(err("floodmin needs k ≥ 1"));
            }
        }
        ClassKind::Early => {
            if f >= n.get() {
                return Err(err(format!("early needs f < n, got f={f} n={}", n.get())));
            }
        }
        ClassKind::Stall => {
            if stall_rounds == 0 {
                return Err(err("stall needs rounds ≥ 1"));
            }
        }
        ClassKind::SConsensus => {}
    }
    Ok(ClassSpec {
        kind,
        n,
        k,
        f,
        weight,
        stall_rounds,
    })
}

/// SplitMix64: the per-instance seed/input stream. One multiplicative
/// hash per draw, deterministic in the (batch seed, instance id, lane)
/// triple, so every shard count of the pool derives identical instances
/// with no shared state.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input value process `p` proposes in instance `id` under batch
/// `seed`: a small value in `0..100` so agreement tasks see collisions.
#[must_use]
pub fn instance_input(seed: u64, id: u64, p: usize) -> Value {
    splitmix64(seed ^ splitmix64(id).wrapping_add(p as u64)) % 100
}

/// A process that never decides: emits a counter and continues forever.
/// Its runs are the batch's guaranteed [`rrfd_core::EngineError`]
/// outcomes — the round limit always fires.
#[derive(Debug, Clone)]
pub struct Stall {
    emitted: u64,
}

impl Stall {
    /// A fresh non-decider.
    #[must_use]
    pub fn new() -> Self {
        Stall { emitted: 0 }
    }
}

impl Default for Stall {
    fn default() -> Self {
        Stall::new()
    }
}

impl RoundProtocol for Stall {
    type Msg = u64;
    type Output = Value;

    fn emit(&mut self, _round: Round) -> u64 {
        self.emitted += 1;
        self.emitted
    }

    fn deliver(&mut self, _delivery: Delivery<'_, u64>) -> Control<Value> {
        Control::Continue
    }
}

// -- concrete classes --------------------------------------------------------

/// `kset` instances: [`OneRoundKSet`] under `KUncertainty(n, k)` with a
/// seeded random adversary.
#[derive(Debug, Clone, Copy)]
pub struct KSetClass {
    spec: ClassSpec,
    seed: u64,
}

/// `floodmin` instances: [`FloodMin`] with the correct `⌊f/k⌋ + 1`
/// budget under `Crash(n, f)` with a seeded random adversary.
#[derive(Debug, Clone, Copy)]
pub struct FloodMinClass {
    spec: ClassSpec,
    seed: u64,
}

/// `sconsensus` instances: [`SRotatingConsensus`] under `DetectorS(n)`
/// with a seeded random adversary.
#[derive(Debug, Clone, Copy)]
pub struct SConsensusClass {
    spec: ClassSpec,
    seed: u64,
}

/// `early` instances: [`EarlyStoppingConsensus`] under `Crash(n, f)`
/// with `StaggeredCrash` adversaries whose actual fault count rotates
/// through `0..=f` by instance id.
#[derive(Debug, Clone, Copy)]
pub struct EarlyClass {
    spec: ClassSpec,
    seed: u64,
}

/// `stall` instances: [`Stall`] processes under `AnyPattern(n)` with the
/// fault-free detector — guaranteed `RoundLimitExceeded`.
#[derive(Debug, Clone, Copy)]
pub struct StallClass {
    spec: ClassSpec,
}

impl KSetClass {
    /// Builds the class from its spec entry and the batch seed.
    #[must_use]
    pub fn new(spec: ClassSpec, seed: u64) -> Self {
        KSetClass { spec, seed }
    }
}

impl InstanceClass for KSetClass {
    type P = OneRoundKSet;
    type D = RandomAdversary<KUncertainty>;
    type Q = KUncertainty;

    fn name(&self) -> &'static str {
        self.spec.kind.name()
    }

    fn system_size(&self) -> SystemSize {
        self.spec.n
    }

    fn max_rounds(&self) -> u32 {
        self.spec.max_rounds()
    }

    fn build(&self, id: u64) -> (Vec<Self::P>, Self::D, Self::Q) {
        let n = self.spec.n;
        let protocols = (0..n.get())
            .map(|p| OneRoundKSet::new(instance_input(self.seed, id, p)))
            .collect();
        let model = KUncertainty::new(n, self.spec.k);
        let detector = RandomAdversary::new(model, splitmix64(self.seed ^ id));
        (protocols, detector, model)
    }
}

impl FloodMinClass {
    /// Builds the class from its spec entry and the batch seed.
    #[must_use]
    pub fn new(spec: ClassSpec, seed: u64) -> Self {
        FloodMinClass { spec, seed }
    }
}

impl InstanceClass for FloodMinClass {
    type P = FloodMin;
    type D = RandomAdversary<Crash>;
    type Q = Crash;

    fn name(&self) -> &'static str {
        self.spec.kind.name()
    }

    fn system_size(&self) -> SystemSize {
        self.spec.n
    }

    fn max_rounds(&self) -> u32 {
        self.spec.max_rounds()
    }

    fn build(&self, id: u64) -> (Vec<Self::P>, Self::D, Self::Q) {
        let n = self.spec.n;
        let budget = FloodMin::correct_budget(self.spec.f, self.spec.k);
        let protocols = (0..n.get())
            .map(|p| FloodMin::new(instance_input(self.seed, id, p), budget))
            .collect();
        let model = Crash::new(n, self.spec.f);
        let detector = RandomAdversary::new(model, splitmix64(self.seed ^ id));
        (protocols, detector, model)
    }
}

impl SConsensusClass {
    /// Builds the class from its spec entry and the batch seed.
    #[must_use]
    pub fn new(spec: ClassSpec, seed: u64) -> Self {
        SConsensusClass { spec, seed }
    }
}

impl InstanceClass for SConsensusClass {
    type P = SRotatingConsensus;
    type D = RandomAdversary<DetectorS>;
    type Q = DetectorS;

    fn name(&self) -> &'static str {
        self.spec.kind.name()
    }

    fn system_size(&self) -> SystemSize {
        self.spec.n
    }

    fn max_rounds(&self) -> u32 {
        self.spec.max_rounds()
    }

    fn build(&self, id: u64) -> (Vec<Self::P>, Self::D, Self::Q) {
        let n = self.spec.n;
        let protocols = (0..n.get())
            .map(|p| SRotatingConsensus::new(n, instance_input(self.seed, id, p)))
            .collect();
        let model = DetectorS::new(n);
        let detector = RandomAdversary::new(model, splitmix64(self.seed ^ id));
        (protocols, detector, model)
    }
}

impl EarlyClass {
    /// Builds the class from its spec entry and the batch seed.
    #[must_use]
    pub fn new(spec: ClassSpec, seed: u64) -> Self {
        EarlyClass { spec, seed }
    }
}

impl InstanceClass for EarlyClass {
    type P = EarlyStoppingConsensus;
    type D = StaggeredCrash;
    type Q = Crash;

    fn name(&self) -> &'static str {
        self.spec.kind.name()
    }

    fn system_size(&self) -> SystemSize {
        self.spec.n
    }

    fn max_rounds(&self) -> u32 {
        self.spec.max_rounds()
    }

    fn build(&self, id: u64) -> (Vec<Self::P>, Self::D, Self::Q) {
        let n = self.spec.n;
        let f = self.spec.f;
        let protocols = (0..n.get())
            .map(|p| EarlyStoppingConsensus::new(instance_input(self.seed, id, p), f))
            .collect();
        // Rotate the actual fault count through 0..=f so the class
        // exercises both the early-stopping and the worst-case paths.
        let f_actual = (id % (f as u64 + 1)) as usize;
        let detector = StaggeredCrash::new(n, f_actual);
        (protocols, detector, Crash::new(n, f))
    }
}

impl StallClass {
    /// Builds the class from its spec entry.
    #[must_use]
    pub fn new(spec: ClassSpec) -> Self {
        StallClass { spec }
    }
}

impl InstanceClass for StallClass {
    type P = Stall;
    type D = NoFailures;
    type Q = AnyPattern;

    fn name(&self) -> &'static str {
        self.spec.kind.name()
    }

    fn system_size(&self) -> SystemSize {
        self.spec.n
    }

    fn max_rounds(&self) -> u32 {
        self.spec.max_rounds()
    }

    fn build(&self, _id: u64) -> (Vec<Self::P>, Self::D, Self::Q) {
        let n = self.spec.n;
        let protocols = (0..n.get()).map(|_| Stall::new()).collect();
        (protocols, NoFailures::new(n), AnyPattern::new(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_parses_and_covers_all_kinds() {
        let mix = MixSpec::default_mix();
        let kinds: Vec<_> = mix.classes().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ClassKind::KSet,
                ClassKind::FloodMin,
                ClassKind::SConsensus,
                ClassKind::Early,
                ClassKind::Stall,
            ]
        );
    }

    #[test]
    fn weights_partition_instance_ids_exactly() {
        let mix = MixSpec::parse("kset:n=4:k=1:w=3,stall:n=4:w=1").unwrap();
        // Σw = 4: residues 0..3 → kset, residue 3 → stall.
        let assigned: Vec<_> = (0..8).map(|id| mix.class_of(id)).collect();
        assert_eq!(assigned, vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn spec_errors_are_reported_not_panicked() {
        assert!(MixSpec::parse("").is_err());
        assert!(MixSpec::parse("nosuch:n=4").is_err());
        assert!(MixSpec::parse("kset:n=4:k=0").is_err());
        assert!(MixSpec::parse("kset:n=4:k=4").is_err());
        assert!(MixSpec::parse("floodmin:n=4:f=4").is_err());
        assert!(MixSpec::parse("early:n=4:f=9").is_err());
        assert!(MixSpec::parse("stall:n=4:rounds=0").is_err());
        assert!(MixSpec::parse("kset:n=4:w=0").is_err());
        assert!(MixSpec::parse("kset:n=4:bogus=1").is_err());
        assert!(MixSpec::parse("kset:n=nope").is_err());
        // Values past u32 are refused, not truncated to 1.
        let wide = MixSpec::parse("kset:n=8:k=2:w=4294967297").unwrap_err();
        assert!(wide.to_string().contains("`w`"), "{wide}");
        let wide = MixSpec::parse("stall:n=4:rounds=4294967297").unwrap_err();
        assert!(wide.to_string().contains("`rounds`"), "{wide}");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let mix = MixSpec::default_mix();
        let rendered: Vec<String> = mix.classes().iter().map(ToString::to_string).collect();
        let reparsed = MixSpec::parse(&rendered.join(",")).unwrap();
        assert_eq!(reparsed, mix);
    }

    #[test]
    fn instance_inputs_are_deterministic_and_small() {
        for id in 0..50u64 {
            for p in 0..8usize {
                let a = instance_input(7, id, p);
                let b = instance_input(7, id, p);
                assert_eq!(a, b);
                assert!(a < 100);
            }
        }
        // Different instances disagree somewhere (not a constant stream).
        let first: Vec<_> = (0..8).map(|p| instance_input(7, 0, p)).collect();
        let second: Vec<_> = (0..8).map(|p| instance_input(7, 1, p)).collect();
        assert_ne!(first, second);
    }
}
