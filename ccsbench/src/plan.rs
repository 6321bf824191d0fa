//! The plan workloads: `plan_paper` (the paper's scale, exact solvers)
//! and `plan_scale` (10k devices with CCSGA scale mode, 1k with CCSA
//! greedy), each operation planning fresh instances end to end.

use crate::check::{check_nash, check_plan, PlanView, Raw, Violation};
use crate::layers::{time_us, Layers};
use crate::{mix, ms_since, Phase, Workload};
use ccs_core::gathering::{gathering_point, GatheringStrategy};
use ccs_core::prelude::*;
use ccs_core::problem::CostParams;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::scenario::{scale_preset, Scenario, ScenarioGenerator};
use std::hint::black_box;
use std::time::Instant;

/// The rule that makes the `plan_paper` instances and the 10k
/// `plan_scale` instances: instance `i` uses generator seed
/// `mix(FIXED_RULE, i)`, whatever `--seed` is. On both, the program has a
/// fault that fails some instances and not others (see [`NAMED_FAULT`]);
/// on seeded instances the share of failed operations would depend on the
/// seed. On a fixed set every instance stays in every round and the same
/// operations fail in every run. `--seed` sets the order of each round.
pub const FIXED_RULE: u64 = 1;

/// `plan_paper` instances: one round plans each once.
const PAPER_ROUND: u64 = 16;

/// 10k-device `plan_scale` instances: one round plans each once.
const SCALE_ROUND: u64 = 2;

/// Distinct seeded 1k-device `plan_scale` instances generated per run.
const SCALE_POOL: u64 = 12;

/// The prefix of a failure that is one of the program's named faults,
/// counted as failed but not as a wrong output: CCSGA stopping at a
/// history-blocked fixed point on `plan_paper` ([`HISTORY_BLOCKED`]), and
/// CCSGA scale mode leaving a device above its best solo cost on
/// `plan_scale` ([`SCALE_IR`]). Any other failure is a wrong output.
pub const NAMED_FAULT: &str = "named fault";

/// How the Nash check names a history-blocked fixed point: a device would
/// gain by moving to another coalition, but its switch history forbids
/// the move, and the program's own audit reports the result unstable (the
/// fault EXPERIMENTS.md reports for fig10).
const HISTORY_BLOCKED: &str = "history-blocked fixed point";

/// How a 10k-device scale-mode plan that is not individually rational is
/// named.
const SCALE_IR: &str = "ccsga scale mode is not individually rational";

const SCALE_GROUP_CAP: usize = 8;

struct Instance {
    scenario: Scenario,
    raw: Raw,
}

impl Instance {
    fn new(scenario: Scenario) -> Self {
        Instance {
            raw: Raw::of(&scenario),
            scenario,
        }
    }
}

/// Checks one plan, adding its cost to the phase; returns the violation.
/// With an `irrational` counter, the devices above their best solo cost
/// are counted there too, and such a plan fails under [`SCALE_IR`].
fn check_into(
    phase: &mut Phase,
    raw: &Raw,
    schedule: &Schedule,
    cap: Option<usize>,
    irrational: Option<&mut u64>,
) -> Result<PlanView, String> {
    let view = PlanView::of(schedule);
    let why = |v: Violation| format!("{}: {}", schedule.algorithm(), v.0);
    let facts = check_plan(raw, &view, cap).map_err(why)?;
    phase.cost_sum += facts.total_cost;
    phase.cost_devices += facts.devices as f64;
    match irrational {
        Some(count) => {
            *count += facts.irrational.len() as u64;
            facts
                .require_ir()
                .map_err(|v| format!("{NAMED_FAULT}: {SCALE_IR}: {}", why(v)))?;
        }
        None => {
            facts.require_ir().map_err(why)?;
        }
    }
    Ok(view)
}

/// A seeded order of `0..n`: `--seed` orders each round (Fisher-Yates).
fn round_order(seed: u64, round: u64, n: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n as usize).collect();
    for k in (1..order.len()).rev() {
        let j = (mix(seed, round << 16 | k as u64) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    order
}

/// The layer probes shared by the plan workloads: times the generator,
/// the tables build, the gathering solver and the facility scan on the
/// final groups, and schedule validation and serialization.
fn probe_plans(
    l: &mut Layers,
    generate: impl Fn() -> Scenario,
    problem: impl Fn() -> CcsProblem,
    schedules: &[&Schedule],
) {
    l.set(
        "wrsn.generate_ms",
        time_us(5, || drop(black_box(generate()))) / 1e3,
    );
    l.set(
        "tables.build_ms",
        time_us(5, || {
            black_box(problem().tables());
        }) / 1e3,
    );
    // The final groups, at most 512 of them, spread over the schedules.
    let groups: Vec<(ChargerId, Vec<DeviceId>)> = schedules
        .iter()
        .flat_map(|s| s.groups().iter().map(|g| (g.charger, g.members.clone())))
        .take(512)
        .collect();
    let solved = problem();
    let mut solve = Vec::new();
    for (charger, members) in &groups {
        solve.push(time_us(5, || {
            black_box(gathering_point(
                &solved,
                *charger,
                members,
                GatheringStrategy::Weiszfeld,
            ));
        }));
    }
    l.set("gathering.solve_us", crate::stats::mean(&solve));
    // A fresh problem: built tables, cold gather memo, as in a solve.
    let fresh = problem();
    fresh.tables();
    let mut scan = Vec::new();
    for (_, members) in &groups {
        scan.push(time_us(1, || {
            black_box(best_facility(&fresh, members));
        }));
    }
    l.set("cost.best_facility_us", crate::stats::mean(&scan));
    let schedule = schedules[0];
    l.set(
        "schedule.validate_us",
        time_us(5, || {
            black_box(schedule.validate(&solved)).expect("a checked plan validates");
        }),
    );
    l.set(
        "schedule.serialize_us",
        time_us(5, || {
            black_box(serde_json::to_string(&serde::Serialize::to_value(schedule)))
                .expect("schedules serialize");
        }),
    );
}

/// `plan_paper`: the [`PAPER_ROUND`] instances of [`FIXED_RULE`] at the
/// paper's scale (50 devices, 10 chargers, the table1 economics), each
/// planned with CCSA and CCSGA at their default exact options and equal
/// sharing. A round plans every instance once, in a seeded order. An
/// instance on which CCSGA ends history-blocked fails every time it is
/// planned, under [`NAMED_FAULT`].
pub struct Paper {
    seed: u64,
    pool: Vec<Instance>,
    /// The first instance a phase planned, with its CCSA and CCSGA
    /// schedules: the layer probes' inputs, the same whatever the speed.
    first: Option<(usize, Schedule, Schedule)>,
}

/// One planned instance: the latency, the two schedules, and the verdict
/// of the checks (`Err` names the failed check).
struct Planned {
    ms: f64,
    peak_mb: f64,
    ccsa: Schedule,
    ccsga: Schedule,
    verdict: Result<(), String>,
    cost: f64,
    devices: f64,
}

fn plan_paper_instance(inst: &Instance) -> Planned {
    crate::alloc::reset_peak();
    let start = Instant::now();
    let problem = CcsProblem::new(black_box(inst.scenario.clone()));
    let a = ccsa(&problem, &EqualShare, CcsaOptions::default());
    let g = ccsga(&problem, &EqualShare, CcsgaOptions::default());
    let ms = ms_since(start);
    let peak_mb = crate::alloc::peak_mb();
    let mut scratch = Phase::default();
    let verdict = check_into(&mut scratch, &inst.raw, &a, None, None).and_then(|_| {
        if !g.converged {
            return Err("ccsga: did not converge".to_string());
        }
        let view = check_into(&mut scratch, &inst.raw, &g.schedule, None, None)?;
        check_nash(&inst.raw, &view, None).map_err(|v| {
            // A converged run the program's own audit calls unstable
            // stopped where switch histories forbid the improving move:
            // the named fault. Any other instability is a wrong output.
            if g.nash_stable {
                format!("ccsga: reported Nash stable, but {}", v.0)
            } else {
                format!("{NAMED_FAULT}: ccsga: {HISTORY_BLOCKED}: {}", v.0)
            }
        })
    });
    Planned {
        ms,
        peak_mb,
        ccsa: a,
        ccsga: g.schedule,
        verdict,
        cost: scratch.cost_sum,
        devices: scratch.cost_devices,
    }
}

impl Paper {
    /// Generates the pool and builds every instance's problem and tables
    /// once (the operations build their own again, from scratch).
    pub fn setup(seed: u64) -> Self {
        let pool: Vec<Instance> = (0..PAPER_ROUND)
            .map(|i| Instance::new(ScenarioGenerator::new(mix(FIXED_RULE, i)).generate()))
            .collect();
        for inst in &pool {
            black_box(CcsProblem::new(inst.scenario.clone()).tables());
        }
        Paper {
            seed,
            pool,
            first: None,
        }
    }
}

impl Workload for Paper {
    fn phase(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut round = 0;
        while phase.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            for i in round_order(self.seed, round, PAPER_ROUND) {
                let inst = &self.pool[i];
                let planned = plan_paper_instance(inst);
                phase.attempted += 1;
                phase.lat_ms.push(planned.ms);
                phase.peaks_mb.push(planned.peak_mb);
                phase.items += inst.raw.devices.len() as f64;
                phase.item_secs += planned.ms / 1e3;
                phase.cost_sum += planned.cost;
                phase.cost_devices += planned.devices;
                if let Err(why) = &planned.verdict {
                    let seed = mix(FIXED_RULE, i as u64);
                    phase.fail(&format!("{why} (instance {i}, generator seed {seed})"), 1);
                }
                if self.first.is_none() {
                    self.first = Some((i, planned.ccsa, planned.ccsga));
                }
            }
            round += 1;
        }
        phase
    }

    fn probe_layers(&mut self, l: &mut Layers) {
        let (i, a, g) = self.first.as_ref().expect("a phase ran");
        let scenario = &self.pool[*i].scenario;
        let seed = mix(FIXED_RULE, *i as u64);
        probe_plans(
            l,
            || ScenarioGenerator::new(seed).generate(),
            || CcsProblem::new(scenario.clone()),
            &[g, a],
        );
    }
}

/// `plan_scale`: each operation plans a 10k-device `scale_preset`
/// instance with CCSGA scale mode (neighbor shortlist 4, two rounds, group
/// cap 8) and a 1k-device instance with the CCSA greedy (no local
/// improvement), the configurations README.md documents for these sizes.
/// The 10k instances are the [`SCALE_ROUND`] instances of [`FIXED_RULE`],
/// each planned once per round in a seeded order; the 1k instances are
/// seeded. A 10k plan with a device above its best solo cost fails every
/// time, under [`NAMED_FAULT`].
pub struct Scale {
    seed: u64,
    big: Vec<Instance>,
    small: Vec<Instance>,
    /// Devices of the 10k plans that pay more than their best solo cost,
    /// and the operations they came from, in the latest phase.
    irrational: (u64, u64),
    /// The first 10k instance a phase planned, with its CCSGA schedule:
    /// the layer probes' inputs, the same whatever the speed.
    first: Option<(usize, Schedule)>,
}

fn scale_params() -> CostParams {
    CostParams {
        max_group_size: Some(SCALE_GROUP_CAP),
        ..CostParams::default()
    }
}

fn scale_ccsga() -> CcsgaOptions {
    CcsgaOptions {
        neighbor_cap: 4,
        check_stability: false,
        max_rounds: 2,
        ..CcsgaOptions::default()
    }
}

fn scale_ccsa() -> CcsaOptions {
    CcsaOptions {
        local_improvement: false,
        ..CcsaOptions::default()
    }
}

impl Scale {
    /// Generates the instances and builds the first pair's tables.
    pub fn setup(seed: u64) -> Self {
        let big: Vec<Instance> = (0..SCALE_ROUND)
            .map(|i| Instance::new(scale_preset(mix(FIXED_RULE, i), 10_000).generate()))
            .collect();
        let small: Vec<Instance> = (0..SCALE_POOL)
            .map(|i| Instance::new(scale_preset(mix(seed, i), 1_000).generate()))
            .collect();
        CcsProblem::with_params(big[0].scenario.clone(), scale_params()).tables();
        CcsProblem::new(small[0].scenario.clone()).tables();
        Scale {
            seed,
            big,
            small,
            irrational: (0, 0),
            first: None,
        }
    }
}

impl Workload for Scale {
    fn phase(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let mut irrational = 0;
        let start = Instant::now();
        let mut round = 0;
        while phase.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            for i in round_order(self.seed, round, SCALE_ROUND) {
                let big = &self.big[i];
                let small = &self.small[phase.attempted as usize % self.small.len()];
                crate::alloc::reset_peak();
                let start = Instant::now();
                let p10k = CcsProblem::with_params(black_box(big.scenario.clone()), scale_params());
                let g = ccsga(&p10k, &EqualShare, scale_ccsga()).schedule;
                let p1k = CcsProblem::new(black_box(small.scenario.clone()));
                let a = ccsa(&p1k, &EqualShare, scale_ccsa());
                let ms = ms_since(start);
                phase.peaks_mb.push(crate::alloc::peak_mb());
                phase.attempted += 1;
                phase.lat_ms.push(ms);
                phase.items += (p10k.num_devices() + p1k.num_devices()) as f64;
                phase.item_secs += ms / 1e3;
                let big_verdict = check_into(
                    &mut phase,
                    &big.raw,
                    &g,
                    Some(SCALE_GROUP_CAP),
                    Some(&mut irrational),
                )
                .map_err(|why| format!("{why} (10k instance {i})"));
                let small_verdict = check_into(&mut phase, &small.raw, &a, None, None);
                // A wrong 1k plan is reported ahead of the named fault.
                if let Err(why) = small_verdict.and(big_verdict) {
                    phase.fail(&why, 1);
                }
                if self.first.is_none() {
                    self.first = Some((i, g));
                }
            }
            round += 1;
        }
        self.irrational = (irrational, phase.attempted);
        phase
    }

    fn summary(&self) -> String {
        format!(
            ", 10k devices above their best solo cost: {}",
            self.irrational.0
        )
    }

    fn probe_layers(&mut self, l: &mut Layers) {
        let (count, ops) = self.irrational;
        l.set(
            "ccsga.scale_ir_violations",
            count as f64 / ops.max(1) as f64,
        );
        let (i, g) = self.first.as_ref().expect("a phase ran");
        let scenario = &self.big[*i].scenario;
        let seed = mix(FIXED_RULE, *i as u64);
        probe_plans(
            l,
            || scale_preset(seed, 10_000).generate(),
            || CcsProblem::with_params(scenario.clone(), scale_params()),
            &[g],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only the named verdicts carry the named-fault prefix: a plan that
    /// breaks another check fails plainly, also where individual
    /// rationality is judged as the scale-mode fault.
    #[test]
    fn other_failures_are_not_named_faults() {
        let scenario = ScenarioGenerator::new(5).devices(20).chargers(5).generate();
        let raw = Raw::of(&scenario);
        let problem = CcsProblem::new(scenario);
        let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let mut count = 0;
        let why = check_into(
            &mut Phase::default(),
            &raw,
            &schedule,
            Some(1),
            Some(&mut count),
        )
        .expect_err("some group has two members or more");
        assert!(why.contains("over the cap"), "{why}");
        assert!(!why.starts_with(NAMED_FAULT), "{why}");
    }
}
