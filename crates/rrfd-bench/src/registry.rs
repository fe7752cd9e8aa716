//! The experiment registry: every experiment of `EXPERIMENTS.md` and every
//! ablation, written once.
//!
//! An [`Experiment`] has a name (`e1` … `e18`, `explore`, `submodel`, the
//! `ablation_*` rows), a title, the claim it checks, and tables of rows.
//! A row is one point of the experiment: its leading columns, and a
//! *cell*, one seeded run at that point returning the row's measured
//! values and whether the claim held ([`CellResult`]). The row is its
//! cell looped over the row's seeds, each value folded as its [`Val`]
//! says.
//!
//! The `experiments` binary renders each titled entry into its
//! `<!-- NAME:begin/end -->` block of `EXPERIMENTS.md` ([`render_into`]);
//! the `report` binary times each entry's [`Experiment::timed`] cell at
//! seed 0. A cell whose claim is false is reported by entry, row and
//! seed, and [`Experiment::run_cell`] replays it. Ablations have no title
//! and no block; they are timed and checked like any other entry.

use rrfd_analyze::blocks::{block_names, splice_block};
use rrfd_analyze::lattice::{self, implies, zoo, Lattice};
use rrfd_core::task::{AdoptCommitSpec, Grade, KSetAgreement, Value};
use rrfd_core::{
    validate_round, AnyPattern, Control, Delivery, Engine, FaultDetector, FaultPattern, IdSet,
    InvalidSystemSize, KnowledgeProtocol, ProcessId, ProgramBatch, Round, RoundFaults,
    RoundProtocol, RrfdPredicate, RunReport, SystemSize,
};
use rrfd_models::adversary::{
    NoFailures, RandomAdversary, RingMiss, SampleModel, SilencingCrash, StaggeredCrash,
};
use rrfd_models::conformance::ConformanceMonitor;
use rrfd_models::predicates::{
    AntiSymmetric, AsyncResilient, Crash, DetectorS, EventuallyStrong, IdenticalViews,
    KUncertainty, SendOmission, Snapshot, Swmr, SystemB,
};
use rrfd_models::submodel::refines_on_samples;
use rrfd_obs::Obs;
use rrfd_protocols::abd::{check_clients, AbdClient, Op};
use rrfd_protocols::adopt_commit::{run_adopt_commit, AdoptCommitProcess};
use rrfd_protocols::detector_from_kset::build_detector_pattern;
use rrfd_protocols::diamond_s_consensus::DiamondSConsensus;
use rrfd_protocols::early_stopping::EarlyStoppingConsensus;
use rrfd_protocols::equivalence::{
    echo_round, majority_echo_pattern, rounds_until_known_by_all, system_b_echo_pattern,
};
use rrfd_protocols::immediate_snapshot::{views_to_round, ImmediateSnapshot, IsDriver, IteratedIS};
use rrfd_protocols::kset::{one_round_kset, FloodMin, OneRoundKSet, SnapshotKSet};
use rrfd_protocols::s_consensus::SRotatingConsensus;
use rrfd_protocols::semi_sync_consensus::{RepeatedRounds, TwoStepConsensus};
use rrfd_protocols::sync_sim::{run_as_omission, run_crash_simulation};
use rrfd_runtime::ThreadedEngine;
use rrfd_sims::async_net::AsyncNetSim;
use rrfd_sims::async_rounds::RoundedAsync;
use rrfd_sims::detector_s::SAugmentedSystem;
use rrfd_sims::dpor::{explore_semi_sync_dpor, explore_shared_mem_dpor, DporConfig};
use rrfd_sims::explore::ExploreStats;
use rrfd_sims::instrument::Instrumented;
use rrfd_sims::semi_sync::{SemiSyncReport, SemiSyncSim};
use rrfd_sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use rrfd_sims::step::RandomScheduler;
use rrfd_sims::sync_net::{RandomCrash, RandomOmission, SyncNetSim};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt::Display;
use std::hint::black_box;
use Val::{All, Count, Max, Mean, Note, Sum, Text};

/// Seeds of a sampled row, unless its experiment says otherwise.
const SEEDS: u64 = 50;

/// How many times an `_x1000` ablation repeats its body per run, so a
/// nanosecond-scale body is timed well above the clock's resolution.
const MICRO_LOOPS: usize = 1000;

/// One measured value of a cell, and how its row folds it over the seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// Text, the same on every seed.
    Text(String),
    /// Text appended to the previous column after a space.
    Note(String),
    /// Summed over the seeds.
    Sum(u64),
    /// Summed over the seeds and rendered as the mean, rounded down.
    Mean(u64),
    /// Maximum over the seeds.
    Max(u64),
    /// Summed over the seeds and rendered as `sum/seeds`.
    Count(u64),
    /// `true` iff `true` on every seed.
    All(bool),
}

impl Val {
    fn fold(&mut self, next: &Val) {
        match (self, next) {
            (Sum(a) | Mean(a) | Count(a), Sum(b) | Mean(b) | Count(b)) => *a += b,
            (Max(a), Max(b)) => *a = (*a).max(*b),
            (All(a), All(b)) => *a &= b,
            _ => {}
        }
    }
}

/// What one seeded run at one point returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// The run's measured values, after its row's point columns.
    pub values: Vec<Val>,
    /// Whether the run upheld the experiment's claim.
    pub holds: bool,
}

/// The outcome of a cell; a run that fails with an error fails the claim.
pub type CellOutcome = Result<CellResult, Box<dyn Error>>;

/// One run at one point, from its seed and the `Obs` handle it records
/// into wherever its substrate has a seam.
pub type Cell = Box<dyn Fn(u64, &Obs) -> CellOutcome>;

/// One point of an experiment.
pub struct Row {
    /// The point's leading columns: its parameters or label.
    pub point: Vec<String>,
    /// The row runs its cell on seeds `0..seeds`.
    pub seeds: u64,
    /// The run at one seed.
    pub cell: Cell,
}

/// One table of an experiment's block: the lines before its rows, and
/// the rows.
struct Part {
    header: &'static str,
    rows: Vec<Row>,
}

/// One registry entry.
pub struct Experiment {
    /// Its block name in `EXPERIMENTS.md` and its row name in the report.
    pub name: &'static str,
    /// The row (counted over all parts) whose cell the report times.
    pub timed: usize,
    /// The block's heading; `None` for an ablation, which has no block.
    pub title: Option<&'static str>,
    /// The claim each cell's verdict checks.
    pub claim: &'static str,
    parts: Vec<Part>,
}

impl Experiment {
    /// An entry with a block headed `title` and no tables yet.
    #[must_use]
    pub fn new(name: &'static str, timed: usize, title: &'static str, claim: &'static str) -> Self {
        Experiment {
            name,
            timed,
            title: Some(title),
            claim,
            parts: Vec::new(),
        }
    }

    /// An ablation: one row, timed and checked, with no block.
    #[must_use]
    pub fn ablation(name: &'static str, claim: &'static str, row: Row) -> Self {
        let mut entry = Experiment::new(name, 0, "", claim).table("", [row]);
        entry.title = None;
        entry
    }

    /// Appends a table of `rows` under `header`: any prose, then the header
    /// and separator lines of a Markdown table. Under an empty header, each
    /// column of a row is printed on a line of its own.
    #[must_use]
    pub fn table(mut self, header: &'static str, rows: impl IntoIterator<Item = Row>) -> Self {
        let rows = rows.into_iter().collect();
        self.parts.push(Part { header, rows });
        self
    }

    /// Runs row `row` (counted over all parts) at `seed`, recording into
    /// `obs`: the report's timed run, and the replay of a failing cell.
    ///
    /// # Errors
    ///
    /// The run's own error, or a message when the row does not exist.
    pub fn run_cell(&self, row: usize, seed: u64, obs: &Obs) -> CellOutcome {
        let mut rows = self.parts.iter().flat_map(|part| &part.rows);
        let row = rows.nth(row).ok_or("no such row")?;
        (row.cell)(seed, obs)
    }

    /// Runs every cell, returning the block body (heading and tables,
    /// ending in a newline; empty for an ablation) and one line per cell
    /// whose claim is false, naming its row and seed.
    fn render(&self) -> (String, Vec<String>) {
        let mut body = format!("## {}\n\n", self.title.unwrap_or_default());
        let (mut failures, mut index) = (Vec::new(), 0);
        for (i, part) in self.parts.iter().enumerate() {
            let table = !part.header.is_empty();
            let gap = if i > 0 { "\n" } else { "" };
            body += &format!("{gap}{}{}", part.header, if table { "\n" } else { "" });
            for row in &part.rows {
                let mut cols: Vec<Val> = row.point.iter().map(txt).collect();
                for seed in 0..row.seeds {
                    let (values, why) = match (row.cell)(seed, &Obs::noop()) {
                        Ok(cell) if cell.holds => (cell.values, None),
                        Ok(cell) => (cell.values, Some(format!("claim false: {}", self.claim))),
                        Err(e) => (Vec::new(), Some(format!("run failed: {e}"))),
                    };
                    if let Some(why) = why {
                        failures.push(format!("{} row {index} seed {seed}: {why}", self.name));
                    }
                    for (col, value) in cols.iter_mut().skip(row.point.len()).zip(&values) {
                        col.fold(value);
                    }
                    if seed == 0 {
                        cols.extend(values);
                    }
                }
                body += &render_row(&cols, row.seeds, table);
                index += 1;
            }
        }
        if self.title.is_none() {
            body.clear();
        }
        (body, failures)
    }
}

fn render_row(values: &[Val], seeds: u64, table: bool) -> String {
    let mut cols: Vec<String> = Vec::new();
    for value in values {
        match value {
            Note(note) => cols
                .last_mut()
                .into_iter()
                .for_each(|col| *col += &format!(" {note}")),
            Text(text) => cols.push(text.clone()),
            Sum(x) | Max(x) => cols.push(x.to_string()),
            Mean(x) => cols.push((x / seeds.max(1)).to_string()),
            Count(x) => cols.push(format!("{x}/{seeds}")),
            All(b) => cols.push(b.to_string()),
        }
    }
    if table {
        format!("| {} |\n", cols.join(" | "))
    } else {
        cols.iter().map(|col| format!("{col}\n")).collect()
    }
}

/// The registry rendered into a file's blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    /// The file with every block spliced in.
    pub text: String,
    /// The blocks whose rendering differs from the file's.
    pub stale: Vec<&'static str>,
    /// False claims, blocks that cannot be spliced, and blocks other than
    /// the registry's or in another order.
    pub problems: Vec<String>,
}

/// Renders every titled entry of `registry` into its block of `text`. The
/// file's blocks, the lattice's aside, must be the registry's titled
/// entries in registry order.
#[must_use]
pub fn render_into(registry: &[Experiment], text: &str) -> Rendered {
    let (mut stale, mut problems) = (Vec::new(), Vec::new());
    let mut out = text.to_owned();
    for experiment in registry {
        let (body, failures) = experiment.render();
        problems.extend(failures);
        if experiment.title.is_none() {
            continue;
        }
        match splice_block(&out, experiment.name, &body) {
            Ok(spliced) if spliced == out => {}
            Ok(spliced) => {
                out = spliced;
                stale.push(experiment.name);
            }
            Err(e) => problems.push(e.to_string()),
        }
    }
    let found: Vec<&str> = block_names(text)
        .into_iter()
        .filter(|&b| b != lattice::BLOCK)
        .collect();
    let titled = registry.iter().filter(|e| e.title.is_some());
    let wanted: Vec<&str> = titled.map(|e| e.name).collect();
    if found != wanted {
        problems.push(format!(
            "the blocks are {found:?}, the registry's are {wanted:?}"
        ));
    }
    Rendered {
        text: out,
        stale,
        problems,
    }
}

fn n(v: usize) -> Result<SystemSize, InvalidSystemSize> {
    SystemSize::new(v)
}

fn inputs(count: usize) -> Vec<Value> {
    (0..count as u64).map(|i| 1000 + i).collect()
}

fn txt(value: impl Display) -> Val {
    Text(value.to_string())
}

fn note(value: impl Display) -> Val {
    Note(value.to_string())
}

/// How often `ok` held over the seeds, rendered `hits/seeds`.
fn count(ok: bool) -> Val {
    Count(ok.into())
}

/// How often `bad` happened over the seeds.
fn tally(bad: bool) -> Val {
    Sum(bad.into())
}

fn done(values: Vec<Val>, holds: bool) -> CellOutcome {
    Ok(CellResult { values, holds })
}

/// A row whose leading columns are `point`.
fn row(
    seeds: u64,
    point: &[&dyn Display],
    cell: impl Fn(u64, &Obs) -> CellOutcome + 'static,
) -> Row {
    let (point, cell) = (
        point.iter().map(ToString::to_string).collect(),
        Box::new(cell),
    );
    Row { point, seeds, cell }
}

/// One instance per process.
fn each<T>(size: SystemSize, instance: impl FnMut(ProcessId) -> T) -> Vec<T> {
    size.processes().map(instance).collect()
}

fn engine(size: SystemSize, obs: &Obs) -> Engine {
    Engine::new(size).obs(obs.clone())
}

fn observed<S>(scheduler: S, obs: &Obs) -> Instrumented<S> {
    Instrumented::new(scheduler, obs.clone())
}

/// A protocol that sends nothing and decides `()` at round `self.0`: it
/// keeps a simulator running for a fixed number of rounds so the fault
/// pattern it extracts can be checked against a model.
struct RunFor(u32);

impl RoundProtocol for RunFor {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {}
    fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<()> {
        if d.round.get() >= self.0 {
            Control::Decide(())
        } else {
            Control::Continue
        }
    }
}

/// The number of distinct values decided by the processes outside
/// `crashed`, and those decisions.
fn correct(outs: Vec<Option<Value>>, crashed: IdSet) -> (u64, Vec<Option<Value>>) {
    let outs = outs.into_iter().enumerate();
    let outs: Vec<_> = outs
        .map(|(i, v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
        .collect();
    (
        outs.iter().flatten().collect::<BTreeSet<_>>().len() as u64,
        outs,
    )
}

/// The decided values of a semi-synchronous run, without step counts.
fn decided(outs: &[Option<(Value, u64)>]) -> Vec<Option<Value>> {
    outs.iter().map(|o| o.map(|(v, _)| v)).collect()
}

/// The whole registry, in `EXPERIMENTS.md` order, then the ablations.
#[must_use]
pub fn all() -> Vec<Experiment> {
    let blocks: [fn() -> Experiment; 20] = [
        e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18, explore,
        submodel,
    ];
    let snapshot = |size| Snapshot::new(size, 16);
    let full_info = |size| {
        each(size, |p| {
            KnowledgeProtocol::new(size, p, p.index() as u64, 4)
        })
    };
    let compact = |size| each(size, |p| FloodMin::new(p.index() as u64, 4));
    let ablations = [
        validate("ablation_validate_snapshot_x1000", snapshot),
        validate("ablation_validate_crash_x1000", |size| Crash::new(size, 16)),
        failure_free("ablation_full_info", full_info),
        failure_free("ablation_compact", compact),
    ];
    let blocks = blocks.map(|entry| entry());
    let ablations = ablations.into_iter().chain(dpor());
    let ablations = ablations.chain(lattice_ablations()).chain(overhead());
    blocks.into_iter().chain(ablations).collect()
}

fn e1() -> Experiment {
    let faulty: IdSet = [1usize, 4, 6].iter().map(|&i| ProcessId::new(i)).collect();
    let run_for = |rounds| (0..8).map(|_| RunFor(rounds)).collect::<Vec<_>>();
    let cell = |label: &str, rounds: u64, ok: bool| {
        done(vec![txt(label), Sum(1), Sum(rounds), count(ok)], ok)
    };
    let omission = row(SEEDS, &[], move |seed, obs| {
        let size = n(8)?;
        let faults = RandomOmission::new(size, faulty, 0.4, seed);
        let sim = SyncNetSim::new(size).obs(obs.clone());
        let report = sim.run(run_for(6), faults)?;
        let ok = SendOmission::new(size, 3).admits_pattern(&report.pattern);
        cell("sync send-omission (n=8,f=3)", report.rounds.into(), ok)
    });
    let crash = row(SEEDS, &[], move |seed, obs| {
        let size = n(8)?;
        let faults = RandomCrash::new(size, faulty, 4, seed);
        let sim = SyncNetSim::new(size).obs(obs.clone());
        let report = sim.run(run_for(6), faults)?;
        let ok = Crash::new(size, 3).admits_pattern(&report.pattern);
        cell("sync crash (n=8,f=3)", report.rounds.into(), ok)
    });
    let rounded = row(SEEDS, &[], move |seed, obs| {
        let size = n(8)?;
        let procs = each(size, |p| RoundedAsync::new(p, size, 2, RunFor(4)));
        let sched = RandomScheduler::new(seed, 2).crash_prob(0.004);
        let report = AsyncNetSim::new(size).run(procs, &mut observed(sched, obs))?;
        let logs = report.processes.iter().map(|p| p.fault_log());
        let ok = logs.clone().all(|log| log.iter().all(|d| d.len() <= 2));
        let rounds = logs.map(<[IdSet]>::len).max().unwrap_or(0);
        cell("async message passing (n=8,f=2)", rounds as u64, ok)
    });
    let detector_s = row(SEEDS, &[], move |seed, _| {
        let size = n(8)?;
        let mut sys = SAugmentedSystem::random(size, 5, seed);
        let mut history = FaultPattern::new(size);
        for r in 1..=8 {
            let round = sys.next_round(Round::new(r), &history);
            history.push(round);
        }
        let ok = DetectorS::new(size).admits_pattern(&history);
        cell("detector-S system (n=8)", 8, ok)
    });
    let semi_sync = row(SEEDS, &[], move |seed, obs| {
        let size = n(8)?;
        let procs = each(size, |p| TwoStepConsensus::new(size, p, p.index() as u64));
        let sched = RandomScheduler::new(seed, 7).crash_prob(0.05);
        let report = SemiSyncSim::new(size).run(procs, &mut observed(sched, obs))?;
        let views = report.processes.iter().filter_map(|p| p.suspected());
        let ok = views.collect::<Vec<_>>().windows(2).all(|w| w[0] == w[1]);
        cell("semi-sync 2-step rounds (n=8)", 1, ok)
    });
    let title = "E1 — classical systems map onto their RRFD predicates";
    let claim = "each system's extracted rounds satisfy its predicate";
    let header = "| system | runs | extracted rounds | predicate-certified |\n\
                  |--------|------|------------------|---------------------|";
    let rows = [omission, crash, rounded, detector_s, semi_sync];
    Experiment::new("e1", 0, title, claim).table(header, rows)
}

fn e2() -> Experiment {
    let sweep = [
        (7usize, 1usize, 3usize),
        (11, 2, 5),
        (15, 3, 7),
        (21, 4, 10),
    ]
    .map(|(nv, f, t)| {
        row(SEEDS, &[&nv, &f, &t, &(6 * SEEDS)], move |seed, _| {
            let size = n(nv)?;
            let mut adv = RandomAdversary::new(SystemB::new(size, f, t), seed);
            let (_, miss) = system_b_echo_pattern(size, f, t, &mut adv, 6);
            let vals = vec![Max(miss as u64), All(miss <= t), All(miss <= f)];
            done(vals, miss <= f.min(t))
        })
    });
    // An adaptive adversary that *concentrates* misses: round one has every
    // fast process miss the same f victims (and slow processes miss t),
    // then round two greedily buries, for a slow target, the victims whose
    // round-one hearer sets fit in the t-budget. This is the hardest attack
    // shape against the echo; the observed maximum equals f, supporting the
    // paper's (unproved) "two rounds of B make a round of A" claim.
    let adaptive = [(5usize, 1usize, 2usize), (7, 1, 3), (9, 2, 4), (13, 3, 6)];
    let adaptive = adaptive.map(|(nv, f, t)| {
        row(1, &[&nv, &f, &t], move |_, _| {
            let size = n(nv)?;
            // Round 1: everyone misses the f highest ids; the t lowest
            // (slow, p0 among them) miss the t highest.
            let victims: IdSet = ((nv - f)..nv).map(ProcessId::new).collect();
            let extra: IdSet = ((nv - t)..nv).map(ProcessId::new).collect();
            let slow = |p: ProcessId| if p.index() < t { extra } else { victims };
            let r1 = RoundFaults::from_sets(size, each(size, |p| slow(p) - IdSet::singleton(p)));
            // Hearer sets (with self-knowledge).
            let hears = |i: ProcessId, j| i == j || !r1.of(i).contains(j);
            let hearers: Vec<IdSet> = each(size, |j| {
                size.processes().filter(|&i| hears(i, j)).collect()
            });
            // Greedy cover for p0: pick origins whose hearers fit the budget.
            let mut order: Vec<usize> = (1..nv).collect();
            order.sort_by_key(|&j| hearers[j].len());
            let mut d0 = IdSet::empty();
            for j in order {
                let candidate = d0 | hearers[j];
                if candidate.len() <= t && candidate != IdSet::universe(size) {
                    d0 = candidate;
                }
            }
            let mut r2 = RoundFaults::none(size);
            r2.set(ProcessId::new(0), d0);
            let mut history = FaultPattern::new(size);
            history.push(r1.clone());
            history.push(r2.clone());
            let legal = SystemB::new(size, f, t).admits_pattern(&history);
            let missed = echo_round(size, &r1, &r2).of(ProcessId::new(0)).len();
            done(
                vec![Max(missed as u64), All(missed == f)],
                legal && missed == f,
            )
        })
    });
    let directions = row(1, &[], |_, _| {
        let size = n(7)?;
        let (a, b) = (AsyncResilient::new(size, 1), SystemB::new(size, 1, 3));
        let ab = refines_on_samples(&a, &b, 100, 8, 2).holds();
        let ba = refines_on_samples(&b, &a, 100, 8, 3).holds();
        let line =
            format!("A ⇒ B sampled: {ab}, B ⇒ A sampled: {ba} (A is a strict submodel of B)");
        done(vec![txt(line)], ab && !ba)
    });
    let title = "E2 — System B: two rounds of B implement a round of A";
    let claim = "the echo misses at most f ≤ t per round, the concentrated attack exactly f, \
                 and A is a strict submodel of B";
    let header = "| n | f | t | simulated rounds | max observed per-round miss | ≤ t always | ≤ f observed |\n\
                  |---|---|---|------------------|-----------------------------|------------|--------------|";
    let adaptive_header = "adaptive concentrated adversary (target p0 slow in both rounds):\n\n\
                           | n | f | t | max simulated misses for the target | = f |\n\
                           |---|---|---|--------------------------------------|------|";
    Experiment::new("e2", 1, title, claim)
        .table(header, sweep)
        .table(adaptive_header, adaptive)
        .table("", [directions])
}

fn e3() -> Experiment {
    let rows = [(4usize, 1usize), (8, 2), (8, 4), (16, 3), (32, 5), (64, 8)].map(|(nv, k)| {
        row(SEEDS, &[&nv, &k, &SEEDS], move |seed, obs| {
            let (ins, task) = (inputs(nv), KSetAgreement::new(k));
            let report = kset_round(nv, k, seed, obs)?;
            let (outs, rounds) = (report.outputs(), report.rounds_executed);
            let distinct = outs.iter().flatten().collect::<BTreeSet<_>>().len();
            let bad = task.check_terminating(&ins, &outs).is_err();
            let vals = vec![Max(rounds.into()), Max(distinct as u64), tally(bad)];
            done(vals, rounds == 1 && distinct <= k && !bad)
        })
    });
    let title = "E3 — Theorem 3.1: one-round k-set agreement";
    let claim = "Pk solves k-set agreement in one round";
    let header = "| n | k | runs | rounds to decide | max distinct decisions | task violations |\n\
                  |---|---|------|------------------|------------------------|-----------------|";
    Experiment::new("e3", 1, title, claim).table(header, rows)
}

/// Theorem 3.1's run: [`OneRoundKSet`] on the engine at `nv` processes
/// with [`inputs`], against a random `k`-uncertainty adversary from `seed`,
/// recording into `obs`. E3 checks its decisions; the overhead ablations
/// time it.
fn kset_round(
    nv: usize,
    k: usize,
    seed: u64,
    obs: &Obs,
) -> Result<RunReport<Value>, Box<dyn Error>> {
    let size = n(nv)?;
    let model = KUncertainty::new(size, k);
    let protos = inputs(nv).into_iter().map(OneRoundKSet::new).collect();
    let mut adv = RandomAdversary::new(model, seed);
    Ok(engine(size, obs).run(protos, &mut adv, &model)?)
}

fn e4() -> Experiment {
    let rows = [(5usize, 2usize), (8, 3), (12, 4), (16, 6)].map(|(nv, k)| {
        row(SEEDS, &[&nv, &k, &(k - 1), &SEEDS], move |seed, obs| {
            let (size, ins) = (n(nv)?, inputs(nv));
            let procs = ins.iter().map(|&v| SnapshotKSet::new(size, k, v)).collect();
            let sched = RandomScheduler::new(seed, k - 1).crash_prob(0.04);
            let sim = SharedMemSim::new(size, 1).with_snapshots();
            let outs = sim.run(procs, &mut observed(sched, obs))?.outputs;
            let distinct = outs.iter().flatten().collect::<BTreeSet<_>>().len();
            let bad = KSetAgreement::new(k).check(&ins, &outs).is_err();
            done(vec![Max(distinct as u64), tally(bad)], !bad)
        })
    });
    let title = "E4 — Corollary 3.2: k-set agreement with k−1 crashes (snapshot memory)";
    let claim = "snapshot k-set agreement decides at most k values despite k−1 crashes";
    let header = "| n | k | crashes allowed | runs | max distinct decisions | violations |\n\
                  |---|---|-----------------|------|------------------------|------------|";
    Experiment::new("e4", 1, title, claim).table(header, rows)
}

fn e5() -> Experiment {
    let rows = [(4usize, 1usize), (8, 2), (12, 3), (16, 4)].map(|(nv, k)| {
        row(SEEDS, &[&nv, &k, &4, &SEEDS], move |seed, obs| {
            let size = n(nv)?;
            let mut sched = observed(RandomScheduler::new(seed, 0), obs);
            let pattern = build_detector_pattern(size, k, 4, seed ^ 0xBEEF, &mut sched)?;
            let uncertainty = pattern.iter().map(|(_, rf)| rf.uncertainty().len());
            let worst = uncertainty.max().unwrap_or(0) as u64;
            let ok = KUncertainty::new(size, k).admits_pattern(&pattern);
            let bound = note(format!("(< k = {k})"));
            done(vec![Max(worst), bound, count(ok)], ok)
        })
    });
    let title = "E5 — Theorem 3.3: k-uncertainty detector from a k-set-consensus object";
    let claim = "the extracted detector rounds satisfy Pk";
    let header = "| n | k | rounds | runs | max per-round uncertainty | Pk certified |\n\
                  |---|---|--------|------|---------------------------|--------------|";
    Experiment::new("e5", 1, title, claim).table(header, rows)
}

fn e6() -> Experiment {
    let rows = [(6usize, 3usize, 1usize), (8, 5, 2), (12, 8, 4), (16, 10, 5)].map(|(nv, f, k)| {
        let budget = (f / k) as u32;
        row(SEEDS, &[&nv, &f, &k, &budget, &SEEDS], move |seed, obs| {
            let (size, ins) = (n(nv)?, inputs(nv));
            let protos = each(size, |p| FloodMin::new(ins[p.index()], budget));
            let mut adv = RandomAdversary::new(Snapshot::new(size, k), seed);
            let report = run_as_omission(engine(size, obs), f, k, protos, &mut adv)?;
            let footprint = report.run.pattern.cumulative_union().len();
            let ok = report.omission_certified && footprint <= f;
            let vals = vec![Max(footprint as u64), note(format!("(≤ f = {f})"))];
            done([vals, vec![count(report.omission_certified)]].concat(), ok)
        })
    });
    let title = "E6 — Theorem 4.1: snapshot rounds are omission rounds (⌊f/k⌋ budget)";
    let claim = "⌊f/k⌋ snapshot rounds are send-omission rounds";
    let header = "| n | f | k | ⌊f/k⌋ rounds | runs | max footprint | certified |\n\
                  |---|---|---|---------------|------|---------------|-----------|";
    Experiment::new("e6", 3, title, claim).table(header, rows)
}

fn e7() -> Experiment {
    let points = [4usize, 8, 16].map(|nv| [(nv, "unanimous"), (nv, "contended")]);
    let rows = points.into_iter().flatten().map(|(nv, label)| {
        row(SEEDS, &[&nv, &label, &SEEDS], move |seed, obs| {
            let (size, contended) = (n(nv)?, label == "contended");
            let ins = each(size, |p| if contended { p.index() as u64 } else { 7 });
            let mut sched = observed(RandomScheduler::new(seed, 0), obs);
            let outs = run_adopt_commit(size, &ins, &mut sched)?;
            let grades: BTreeSet<Grade> = outs.iter().flatten().map(|&(g, _)| g).collect();
            let all_commit = grades == BTreeSet::from([Grade::Commit]);
            let bad = AdoptCommitSpec.check(&ins, &outs).is_err();
            let mixed = grades.len() > 1;
            let vals = vec![tally(all_commit), tally(mixed), tally(bad)];
            done(vals, !bad && (contended || all_commit))
        })
    });
    let title = "E7 — §4.2 adopt-commit";
    let claim = "adopt-commit meets its spec, and unanimous inputs commit";
    let header = "| n | inputs | runs | all-commit runs | mixed runs | spec violations |\n\
                  |---|--------|------|-----------------|------------|-----------------|";
    Experiment::new("e7", 3, title, claim).table(header, rows)
}

fn e8() -> Experiment {
    let rows = [(5usize, 2usize, 1usize), (6, 4, 2), (9, 6, 3), (12, 6, 2)].map(|(nv, f, k)| {
        let budget = (f / k) as u32;
        row(SEEDS, &[&nv, &f, &k, &budget, &SEEDS], move |seed, obs| {
            let (size, ins) = (n(nv)?, inputs(nv));
            let protos = each(size, |p| FloodMin::new(ins[p.index()], budget));
            let mut sched = observed(RandomScheduler::new(seed, k).crash_prob(0.02), obs);
            let report = run_crash_simulation(size, k, f, budget, protos, &mut sched)?;
            let worst = report.pattern.cumulative_union().len() as u64;
            let ok = report.crash_certified;
            let bound = note(format!("(≤ f = {f})"));
            done(vec![Max(worst), bound, count(ok)], ok)
        })
    });
    let title = "E8 — Theorem 4.3: crash rounds on async snapshot memory";
    let claim = "simulated rounds satisfy the crash predicate";
    let header = "| n | f | k | sim rounds | runs | max footprint | crash-certified |\n\
                  |---|---|---|------------|------|---------------|-----------------|";
    Experiment::new("e8", 1, title, claim).table(header, rows)
}

fn e9() -> Experiment {
    let rows = [(6usize, 3usize, 1usize), (10, 4, 2), (13, 6, 3), (26, 8, 4)].map(|(nv, f, k)| {
        row(1, &[&nv, &f, &k], move |_, obs| {
            let (size, floor) = (n(nv)?, (f / k) as u32);
            let distinct = |budget: u32| -> Result<u64, Box<dyn Error>> {
                let protos = (0..nv as u64).map(|v| FloodMin::new(v, budget)).collect();
                let mut adv = SilencingCrash::new(size, f, k);
                let report = engine(size, obs).run(protos, &mut adv, &Crash::new(size, f))?;
                Ok(correct(report.outputs(), report.pattern.cumulative_union()).0)
            };
            let (short, tight) = (distinct(floor)?, distinct(floor + 1)?);
            let ok = short > k as u64 && tight <= k as u64;
            let vals = vec![
                Max(short),
                note(format!("(> k = {k})")),
                Max(tight),
                note("(≤ k)"),
            ];
            done([vals, vec![All(ok)]].concat(), ok)
        })
    });
    let title = "E9 — Corollaries 4.2/4.4: the ⌊f/k⌋+1 lower bound, both arms";
    let claim = "⌊f/k⌋ rounds leave more than k values, ⌊f/k⌋+1 rounds at most k";
    let header = "| n | f | k | distinct values @ ⌊f/k⌋ | @ ⌊f/k⌋+1 | bound tight |\n\
                  |---|---|---|--------------------------|-----------|-------------|";
    Experiment::new("e9", 1, title, claim).table(header, rows)
}

fn e10() -> Experiment {
    let rows = [3usize, 5, 8, 12, 16, 24].map(|nv| {
        row(SEEDS, &[&nv], move |seed, obs| {
            let (size, ins, task) = (n(nv)?, inputs(nv), KSetAgreement::consensus());
            let crashes = |seed| observed(RandomScheduler::new(seed, nv - 1).crash_prob(0.04), obs);
            let procs = each(size, |p| TwoStepConsensus::new(size, p, ins[p.index()]));
            let fast = SemiSyncSim::new(size).run(procs, &mut crashes(seed))?;
            let procs = each(size, |p| {
                RepeatedRounds::new(size, p, ins[p.index()], nv as u32)
            });
            let slow = SemiSyncSim::new(size).run(procs, &mut crashes(seed + 10_000))?;
            let bad =
                [&fast.outputs, &slow.outputs].map(|o| task.check(&ins, &decided(o)).is_err());
            let bad = bad.into_iter().filter(|&b| b).count() as u64;
            let steps = [fast.max_steps_to_decide(), slow.max_steps_to_decide()];
            let steps = steps.map(Option::unwrap_or_default);
            done(
                vec![Max(steps[0]), Max(steps[1]), Sum(bad)],
                bad == 0 && steps[0] <= 2,
            )
        })
    });
    let title = "E10 — §5: 2-step consensus vs the 2n-step baseline";
    let claim = "consensus holds, and the RRFD protocol decides within 2 steps";
    let header = "| n | 2-step: max steps to decide | baseline: max steps | consensus violations |\n\
                  |---|------------------------------|---------------------|----------------------|";
    Experiment::new("e10", 2, title, claim).table(header, rows)
}

fn e11() -> Experiment {
    let echo = [(5usize, 2usize), (9, 4), (17, 8), (33, 16)].map(|(nv, f)| {
        row(SEEDS, &[&nv, &f, &SEEDS], move |seed, _| {
            let size = n(nv)?;
            let mut adv = RandomAdversary::new(AsyncResilient::new(size, f), seed);
            let sim = majority_echo_pattern(size, f, &mut adv, 4);
            let ok = Swmr::new(size, f).admits_pattern(&sim);
            done(vec![count(ok)], ok)
        })
    });
    let gossip = [3usize, 6, 10, 16, 24].map(|nv| {
        row(SEEDS, &[&nv], move |seed, _| {
            let (size, limit) = (n(nv)?, 2 * nv as u32);
            let ring = rounds_until_known_by_all(size, &mut RingMiss::new(size), limit);
            let mut adv = RandomAdversary::new(AntiSymmetric::new(size), seed);
            let random = rounds_until_known_by_all(size, &mut adv, limit);
            let (ring, random) = (ring.ok_or("no spread")?, random.ok_or("no spread")?);
            let ok = ring.max(random) <= nv as u32;
            done(vec![Max(ring.into()), Max(random.into())], ok)
        })
    });
    let title = "E11 — item 4: SWMR from message passing; the antisymmetric clause";
    let claim = "majority-echo rounds satisfy SWMR, and someone is known by all within n rounds";
    let header = "| n | f | majority-echo runs | SWMR-certified |\n\
                  |---|---|--------------------|----------------|";
    let gossip_header =
        "rounds until some process is known by all (paper: ≤ n; conjecture: 2):\n\n\
                         | n | ring adversary | worst over random antisymmetric runs |\n\
                         |---|----------------|----------------------------------------|";
    Experiment::new("e11", 1, title, claim)
        .table(header, echo)
        .table(gossip_header, gossip)
}

fn e12() -> Experiment {
    let directions = row(1, &[], |_, _| {
        let size = n(6)?;
        let (wide, s) = (SendOmission::new(size, 5), DetectorS::new(size));
        let fwd = refines_on_samples(&wide, &s, 200, 8, 11).holds();
        let bwd = refines_on_samples(&s, &wide, 200, 8, 12).holds();
        let vals = vec![
            txt(format!("P1(f = n−1) ⇒ P6 on samples: {fwd}")),
            txt(format!("P6 ⇒ P1(f = n−1) on samples: {bwd}")),
            txt("(the backward direction holds up to the reconciled self-trust clause;"),
            txt(" the footprint components are identical by predicate manipulation)"),
        ];
        done(vals, fwd && !bwd)
    });
    let title = "E12 — item 6: detector-S ⇔ send-omission with f = n − 1";
    let claim = "P1(f = n−1) implies P6, and only the self-trust clause blocks the converse";
    Experiment::new("e12", 0, title, claim).table("", [directions])
}

fn e13() -> Experiment {
    let rows = [(2usize, 1usize), (4, 2), (8, 3), (16, 5)].map(|(nv, k)| {
        row(10, &[&nv, &k, &10], move |seed, obs| {
            let (size, ins, task) = (n(nv)?, inputs(nv), KSetAgreement::new(k));
            let model = KUncertainty::new(size, k);
            let adv = || RandomAdversary::new(model, seed);
            let engine = one_round_kset(size, k, &ins, &mut adv())?;
            let protos = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
            let threaded = ThreadedEngine::new(size).obs(obs.clone());
            let threaded = threaded.run(protos, &mut adv(), &model)?.outputs();
            let same = engine.into_iter().map(Some).eq(threaded.iter().copied());
            let bad = task.check_terminating(&ins, &threaded).is_err();
            done(vec![count(same), tally(bad)], same && !bad)
        })
    });
    let title = "E13 — the threaded runtime agrees with the in-process engine";
    let claim = "threads decide exactly what the engine decides";
    let header = "| n | k | runs | identical decisions | task violations |\n\
                  |---|---|------|---------------------|-----------------|";
    Experiment::new("e13", 1, title, claim).table(header, rows)
}

fn e14() -> Experiment {
    let rows = [(3usize, 3u32), (5, 4), (8, 3), (12, 2)].map(|(nv, rounds)| {
        row(SEEDS, &[&nv, &rounds, &SEEDS], move |seed, obs| {
            let size = n(nv)?;
            let procs = each(size, |p| IteratedIS::new(size, p, rounds));
            let sim = SharedMemSim::new(size, IteratedIS::banks_needed(rounds)).with_snapshots();
            let sched = RandomScheduler::new(seed, 0);
            let outs = sim.run(procs, &mut observed(sched, obs))?.outputs;
            let all: Vec<Vec<IdSet>> =
                outs.into_iter().collect::<Option<_>>().ok_or("undecided")?;
            let mut ok = true;
            let mut pattern = FaultPattern::new(size);
            for r in 0..rounds as usize {
                let views: Vec<IdSet> = all.iter().map(|v| v[r]).collect();
                for (i, vi) in views.iter().enumerate() {
                    ok &= vi.contains(ProcessId::new(i));
                    for (j, vj) in views.iter().enumerate() {
                        ok &= vi.is_subset(*vj) || vj.is_subset(*vi);
                        ok &= !vi.contains(ProcessId::new(j)) || vj.is_subset(*vi);
                    }
                }
                pattern.push(views_to_round(size, &views));
            }
            let certified = Snapshot::new(size, nv - 1).admits_pattern(&pattern);
            done(vec![count(ok), count(certified)], ok && certified)
        })
    });
    let title = "E14 — immediate snapshots: the iterated model of [4]";
    let claim = "every view has the immediate-snapshot properties, and the rounds satisfy P5";
    let header = "| n | iterated rounds | runs | IS properties | P5-certified patterns |\n\
                  |---|-----------------|------|----------------|------------------------|";
    Experiment::new("e14", 1, title, claim).table(header, rows)
}

fn e15() -> Experiment {
    let rows = [(3usize, 1usize), (5, 2), (9, 4)].map(|(nv, f)| {
        row(SEEDS, &[&nv, &f, &SEEDS], move |seed, obs| {
            let (size, p0) = (n(nv)?, ProcessId::new(0));
            let writes = vec![Op::Write(1), Op::Write(2), Op::Write(3)];
            let script = |p| {
                if p == p0 {
                    writes.clone()
                } else {
                    vec![Op::Read(p0); 2]
                }
            };
            let procs = each(size, |p| AbdClient::new(p, size, f, script(p)));
            let sched = RandomScheduler::new(seed, f).crash_prob(0.002);
            let report = AsyncNetSim::new(size).run(procs, &mut observed(sched, obs))?;
            let ok = check_clients(&report.processes).is_ok();
            done(vec![Mean(report.deliveries), count(ok)], ok)
        })
    });
    let title = "E15 — ABD register emulation: shared memory from message passing";
    let claim = "every emulated register history is atomic";
    let header = "| n | f | runs | avg deliveries | atomicity-certified |\n\
                  |---|---|------|----------------|---------------------|";
    Experiment::new("e15", 1, title, claim).table(header, rows)
}

fn e16() -> Experiment {
    let rows = [3usize, 6, 10, 16].map(|nv| {
        row(SEEDS, &[&nv, &SEEDS], move |seed, obs| {
            let (size, ins, task) = (n(nv)?, inputs(nv), KSetAgreement::consensus());
            let model = DetectorS::new(size);
            let protos = each(size, |p| SRotatingConsensus::new(size, ins[p.index()]));
            let mut adv = RandomAdversary::new(model, seed);
            let report = engine(size, obs).run(protos, &mut adv, &model)?;
            let bad = task.check_terminating(&ins, &report.outputs()).is_err();
            let rounds = report.rounds_executed;
            let vals = vec![Max(rounds.into()), note("(= n)"), tally(bad)];
            done(vals, !bad && rounds <= nv as u32)
        })
    });
    let title = "E16 — consensus under detector-S (§2 item 6's payoff)";
    let claim = "the rotating coordinator reaches consensus within n rounds under P6";
    let header = "| n | runs | rounds to decide | consensus violations |\n\
                  |---|------|------------------|----------------------|";
    Experiment::new("e16", 1, title, claim).table(header, rows)
}

fn e17() -> Experiment {
    const F: usize = 5;
    let rows = (0..=F).map(|f_actual| {
        row(1, &[&f_actual], move |_, obs| {
            let (size, ins) = (n(10)?, (0..10).collect::<Vec<Value>>());
            let protos = each(size, |p| EarlyStoppingConsensus::new(ins[p.index()], F));
            let mut adv = StaggeredCrash::new(size, f_actual);
            let report = engine(size, obs).run(protos, &mut adv, &Crash::new(size, F))?;
            let (bound, rounds) = ((f_actual + 2).min(F + 1) as u32, report.rounds_executed);
            let (_, outs) = correct(report.outputs(), report.pattern.cumulative_union());
            let ok = KSetAgreement::consensus().check(&ins, &outs).is_ok();
            done(
                vec![Max(rounds.into()), txt(bound), All(ok)],
                ok && rounds <= bound,
            )
        })
    });
    let title = "E17 — extension: early-stopping consensus (min(f′+2, f+1) rounds)";
    let claim = "consensus within min(f′+2, f+1) rounds";
    let header = "n = 10, tolerance f = 5; one actual crash per round until f′ is reached\n\n\
                  | actual failures f′ | rounds to decide | worst-case bound min(f′+2, f+1) | consensus |\n\
                  |--------------------|------------------|----------------------------------|-----------|";
    Experiment::new("e17", 3, title, claim).table(header, rows)
}

fn e18() -> Experiment {
    let rows = [(3usize, 1usize, 3u32), (5, 2, 6), (7, 3, 12), (9, 4, 24)].map(|(nv, f, stab)| {
        row(SEEDS, &[&nv, &f, &stab, &SEEDS], move |seed, obs| {
            let (size, ins, task) = (n(nv)?, inputs(nv), KSetAgreement::consensus());
            let protos = each(size, |p| DiamondSConsensus::new(size, p, f, ins[p.index()]));
            let model = EventuallyStrong::new(size, f, Round::new(stab));
            let mut adv = RandomAdversary::new(model, seed);
            let engine = engine(size, obs).max_rounds(3 * (stab + 3 * nv as u32 + 3));
            let report = engine.run(protos, &mut adv, &model)?;
            let bad = task.check_terminating(&ins, &report.outputs()).is_err();
            done(vec![Max(report.rounds_executed.into()), tally(bad)], !bad)
        })
    });
    let title = "E18 — ◊S as an RRFD: consensus with quorum locking (§7 future work)";
    let claim = "quorum-locking consensus decides under ◊S without violations";
    let header = "| n | f | stabilization round | runs | max rounds to decide | violations |\n\
                  |---|---|---------------------|------|----------------------|------------|";
    Experiment::new("e18", 0, title, claim).table(header, rows)
}

/// An exploration row's values: its search-effort totals, which also land
/// in `obs`. A violation fails the run, so the violations column is 0.
fn effort(stats: ExploreStats, obs: &Obs) -> CellOutcome {
    stats.record(obs);
    let (classes, depth) = (stats.schedules as u64, stats.max_depth as u64);
    let vals = vec![
        Sum(classes),
        Sum(stats.decision_points),
        Max(depth),
        Sum(stats.revisits),
    ];
    done([vals, vec![txt(0)]].concat(), true)
}

fn explore() -> Experiment {
    let adopt_commit = row(1, &[&"adopt-commit (n=2, inputs 4/9)"], |_, obs| {
        let (size, ins) = (n(2)?, [4u64, 9]);
        let make = || {
            each(size, |p| {
                AdoptCommitProcess::new(size, p, ins[p.index()], 0)
            })
        };
        let spec = |outs: &[_]| AdoptCommitSpec.check(&ins, outs).map_err(|v| v.to_string());
        let check = |report: &MemRunReport<_, _>| spec(&report.outputs);
        let sim = SharedMemSim::new(size, 2);
        let stats = explore_shared_mem_dpor(&sim, make, check, &DporConfig::new(1));
        effort(stats.map_err(|e| e.to_string())?, obs)
    });
    let immediate_snapshot = row(1, &[&"immediate snapshot (n=2)"], |_, obs| {
        let size = n(2)?;
        let sim = SharedMemSim::new(size, ImmediateSnapshot::BANKS).with_snapshots();
        let process = |p: ProcessId| ImmediateSnapshot::new(size, p, p.index() as u64);
        let make = || each(size, |p| IsDriver::new(process(p)));
        let check = |report: &MemRunReport<_, _>| {
            for (i, view) in report.outputs.iter().enumerate() {
                let view: &IdSet = view.as_ref().ok_or_else(|| format!("p{i} undecided"))?;
                if !view.contains(ProcessId::new(i)) {
                    return Err(format!("p{i} view misses itself"));
                }
            }
            Ok(())
        };
        let stats = explore_shared_mem_dpor(&sim, make, check, &DporConfig::new(1));
        effort(stats.map_err(|e| e.to_string())?, obs)
    });
    let title = "Exhaustive schedule exploration (search effort)";
    let claim = "every trace class of both instances satisfies its spec";
    let header = "The DPOR explorer returns its search-effort totals (`ExploreStats`): trace \
                  classes checked (one representative run per Mazurkiewicz class), decision \
                  points visited over every run it made (replayed prefixes re-counted), the \
                  deepest run, and the race-reversal revisits it scheduled. The totals also land \
                  on the `rrfd_explore_*` metrics via `ExploreStats::record`. \
                  `tests/dpor_equivalence.rs` checks both instances against a walk over every \
                  interleaving: 3432 schedules for adopt-commit, 226 for immediate snapshot.\n\n\
                  | instance | trace classes | decision points | max depth | revisits | violations |\n\
                  |----------|---------------|-----------------|-----------|----------|------------|";
    let rows = [adopt_commit, immediate_snapshot];
    Experiment::new("explore", 0, title, claim).table(header, rows)
}

/// A sampled-refinement row: `A ⇒ B` at n = 7 on 100 runs of 8 rounds
/// from `seed`.
fn refines<A, B>(seed: u64, models: fn(SystemSize) -> (A, B)) -> Row
where
    A: SampleModel + 'static,
    B: RrfdPredicate + 'static,
{
    row(1, &[], move |_, _| {
        let (a, b) = models(n(7)?);
        let holds = refines_on_samples(&a, &b, 100, 8, seed).holds();
        done(vec![txt(a.name()), txt(b.name()), All(holds)], holds)
    })
}

fn submodel() -> Experiment {
    let rows = [
        refines(1, |size| (Crash::new(size, 3), SendOmission::new(size, 3))),
        refines(2, |size| (Snapshot::new(size, 3), Swmr::new(size, 3))),
        refines(3, |size| (Swmr::new(size, 3), AsyncResilient::new(size, 3))),
        refines(4, |size| {
            (IdenticalViews::new(size), KUncertainty::new(size, 1))
        }),
        refines(5, |size| {
            (KUncertainty::new(size, 2), KUncertainty::new(size, 4))
        }),
    ];
    let title = "Submodel lattice (sampled refinement checks)";
    let claim = "each sampled submodel implication holds";
    let header = "| A | B | A ⇒ B |\n|---|---|--------|";
    Experiment::new("submodel", 0, title, claim).table(header, rows)
}

/// The per-round validation ablation: the compiled batch of `model` at
/// n = 64 admitting one sampled round as the first of a fresh run,
/// [`MICRO_LOOPS`] times.
fn validate<M>(name: &'static str, model: fn(SystemSize) -> M) -> Experiment
where
    M: RrfdPredicate + SampleModel + Clone + 'static,
{
    let cell = row(1, &[], move |seed, _| {
        let (size, model) = (n(64)?, model(n(64)?));
        let mut adv = RandomAdversary::new(model.clone(), seed);
        let round = adv.next_round(Round::FIRST, &FaultPattern::new(size));
        let (mut batch, mut holds) = (ProgramBatch::of(&model), true);
        for _ in 0..MICRO_LOOPS {
            batch.reset();
            holds &= validate_round(&model, &mut batch, black_box(&round)).is_ok();
        }
        done(Vec::new(), holds)
    });
    Experiment::ablation(name, "the compiled batch admits a sampled round", cell)
}

/// The full-information ablation pair: `protocols` run failure-free at
/// n = 16.
fn failure_free<P>(name: &'static str, protocols: fn(SystemSize) -> Vec<P>) -> Experiment
where
    P: RoundProtocol + 'static,
{
    let cell = row(1, &[], move |_, obs| {
        let size = n(16)?;
        let (mut adv, model) = (NoFailures::new(size), AnyPattern::new(size));
        let report = engine(size, obs).run(protocols(size), &mut adv, &model)?;
        done(Vec::new(), report.all_decided())
    });
    Experiment::ablation(name, "every process decides in a failure-free run", cell)
}

/// A full-information ring at n = 6. Each process floods its value
/// through three write rounds (one SWMR bank per round), then reads its
/// ring successor's final-round cell and decides on what it saw. The
/// 30-event schedule tree is astronomically large (`30!/(5!)⁶`
/// interleavings), but only the six write/read pairs on the last bank
/// conflict — so the DPOR explorer collapses the whole tree into 63
/// Mazurkiewicz classes (the 2⁶ miss/see combinations minus the all-miss
/// one, which the ring makes cyclically infeasible).
#[derive(Debug, Clone)]
struct RingFlood {
    id: u8,
    phase: u8,
}

impl MemProcess<u64> for RingFlood {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        // Steps 1–3 write banks 0–2, step 4 reads, step 5 decides.
        self.phase += 1;
        match obs {
            Observation::Value(v) => Action::Decide(v.unwrap_or(u64::MAX)),
            _ if self.phase <= 3 => Action::Write {
                bank: usize::from(self.phase) - 1,
                value: u64::from(self.id),
            },
            _ => Action::Read {
                bank: 2,
                owner: ProcessId::new(usize::from((self.id + 1) % 6)),
            },
        }
    }
}

/// A DPOR ablation's values: its search effort, holding when the explorer
/// found exactly `count` trace classes, each one maximal execution graph.
/// Any other count is a reduction bug.
fn classes(stats: ExploreStats, count: usize, obs: &Obs) -> CellOutcome {
    let holds = stats.schedules == count && stats.schedules as u64 == stats.graphs_explored;
    Ok(CellResult {
        holds,
        ..effort(stats, obs)?
    })
}

/// The DPOR explorer on [`RingFlood`], which has no crash, and on §5's
/// two-step semi-synchronous consensus (`RepeatedRounds`, n = 3, two
/// rounds, one crash) with termination and consensus checked per class:
/// the crash alternatives the ring never offers.
fn dpor() -> [Experiment; 2] {
    let ring = row(1, &[], |_, obs| {
        let sim = SharedMemSim::new(n(6)?, 3);
        let make = || {
            (0..6)
                .map(|id| RingFlood { id, phase: 0 })
                .collect::<Vec<_>>()
        };
        let stats = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1));
        classes(stats.map_err(|e| e.to_string())?, 63, obs)
    });
    let semisync = row(1, &[], |_, obs| {
        const INPUTS: [Value; 3] = [4, 1, 9];
        let size = n(3)?;
        let make = || each(size, |p| RepeatedRounds::new(size, p, INPUTS[p.index()], 2));
        let check = |report: &SemiSyncReport<RepeatedRounds>| {
            if !report.all_correct_decided() {
                return Err("a correct process did not decide".to_owned());
            }
            let task = KSetAgreement::consensus();
            task.check(&INPUTS, &decided(&report.outputs))
                .map_err(|v| v.to_string())
        };
        let sim = SemiSyncSim::new(size);
        let stats = explore_semi_sync_dpor(&sim, 1, make, check, &DporConfig::new(1));
        classes(stats.map_err(|e| e.to_string())?, 612, obs)
    });
    [
        Experiment::ablation(
            "ablation_dpor_ring",
            "the ring flood has exactly 63 trace classes, one execution graph each",
            ring,
        ),
        Experiment::ablation(
            "ablation_dpor_semisync",
            "semi-sync consensus holds in each of exactly 612 trace classes",
            semisync,
        ),
    ]
}

/// A clean crash at n processes: process n − 1 is suspected by everyone
/// else from round 2 on, for `rounds` rounds.
fn crash_stream(size: SystemSize, rounds: usize) -> Vec<RoundFaults> {
    let crashed = IdSet::singleton(ProcessId::new(size.get() - 1));
    let round = |r| match r {
        0 => RoundFaults::none(size),
        _ => RoundFaults::from_sets(size, each(size, |i| crashed - IdSet::singleton(i))),
    };
    (0..rounds).map(round).collect()
}

/// §2's submodel ordering over `zoo(3, 1)`: the per-pair [`implies`]
/// search at depth 3 against the shared-trie [`Lattice::compute_compiled`]
/// walk at depths 3 and 4, and [`MICRO_LOOPS`] fresh conformance monitors
/// over the zoo on a 24-round crash stream (per-round cost: the median
/// over 24,000). Zoo members 0 and 1 are crash and send-omission.
fn lattice_ablations() -> [Experiment; 4] {
    let pairwise = row(1, &[], |_, _| {
        let family = zoo(n(3)?, 1);
        let compiled = Lattice::compute_compiled(&family, 3);
        let mut agree = true;
        for (i, a) in family.iter().enumerate() {
            for (j, b) in family.iter().enumerate() {
                let holds = i == j || implies(a.as_ref(), b.as_ref(), 3).is_ok();
                agree &= holds == compiled.implies_at(i, j);
            }
        }
        done(Vec::new(), agree)
    });
    let compiled = |depth| {
        row(1, &[], move |_, _| {
            let lattice = Lattice::compute_compiled(&zoo(n(3)?, 1), depth);
            done(
                Vec::new(),
                lattice.implies_at(0, 1) && !lattice.implies_at(1, 0),
            )
        })
    };
    let conformance = row(1, &[], |_, _| {
        let (size, mut holds) = (n(3)?, true);
        let stream = crash_stream(size, 24);
        for _ in 0..MICRO_LOOPS {
            let mut monitor = ConformanceMonitor::zoo(size, 1);
            for round in &stream {
                monitor.observe(round);
            }
            holds &= monitor.first_violation(0).is_none();
        }
        done(Vec::new(), holds)
    });
    let ordered = "the compiled lattice orders crash strictly below send-omission";
    [
        Experiment::ablation(
            "ablation_lattice_pairwise_d3",
            "the per-pair search agrees with the compiled walk on every depth-3 pair",
            pairwise,
        ),
        Experiment::ablation("ablation_lattice_compiled_d3", ordered, compiled(3)),
        Experiment::ablation("ablation_lattice_compiled_d4", ordered, compiled(4)),
        Experiment::ablation(
            "ablation_conformance_zoo_x1000",
            "the crash model admits the crash stream on every pass",
            conformance,
        ),
    ]
}

/// The recorder-overhead pair: e3's run at n = 8, k = 2, recording into
/// the cell's handle (the report times it with the no-op one) and into a
/// fresh logical recorder built per run. Both check only that the run
/// decided, so the two medians differ by the recorder alone.
fn overhead() -> [Experiment; 2] {
    let claim = "every process decides in the one round";
    let noop = row(1, &[], |seed, obs| {
        done(Vec::new(), kset_round(8, 2, seed, obs)?.all_decided())
    });
    let recorded = row(1, &[], |seed, _| {
        let report = kset_round(8, 2, seed, &Obs::logical())?;
        done(Vec::new(), report.all_decided())
    });
    [
        Experiment::ablation("ablation_overhead_noop", claim, noop),
        Experiment::ablation("ablation_overhead_recorded", claim, recorded),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_stream_is_admissible_for_the_crash_model() {
        let size = n(3).expect("valid size");
        let mut monitor = ConformanceMonitor::zoo(size, 1);
        for round in &crash_stream(size, 8) {
            monitor.observe(round);
        }
        let verdict = monitor.verdict();
        assert!(
            verdict.strongest_satisfied().is_some(),
            "the stream must keep at least one model alive"
        );
    }
}
