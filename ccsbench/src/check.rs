//! Output checks computed apart from the program.
//!
//! Every figure here is recomputed from the raw scenario (positions,
//! prices, rates, demands) with the bill formula of DESIGN.md §1 and
//! equal sharing. No function of `ccs-core` that prices a group, a
//! facility or a share is called: a fault in the program's pricing would
//! otherwise be checked against itself.

use ccs_wrsn::scenario::Scenario;
use serde::value::Value;

/// Relative tolerance for recomputed prices: they differ from the
/// program's only by floating-point association.
const PRICE_TOL: f64 = 1e-9;

/// Tolerance of the individual-rationality and Nash checks, relative to
/// the device's cost. The program places a gathering point with Weiszfeld
/// iterations (at most 200, stopping under a 1e-7 m step), which approach
/// an optimum at an anchor only slowly; the checks use the closed-form
/// solo optimum or a tighter Weiszfeld of their own. Over 24,000 sampled
/// solo hires the program's solo cost stood at most 0.057% above the
/// closed form (0.04% at the 99.9th percentile); 0.2% covers that gap
/// with room and nothing more.
pub const GATHER_TOL: f64 = 2e-3;

/// A check violation, naming the check and the offending figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation(pub String);

fn fail<T>(msg: String) -> Result<T, Violation> {
    Err(Violation(msg))
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).hypot(a.1 - b.1)
}

/// The congestion curve `g(k) = sqrt(k)` of DESIGN.md §1 (the problem's
/// default, which every workload uses).
fn curve(k: usize) -> f64 {
    (k as f64).sqrt()
}

/// The raw entity data of a scenario, read through plain getters.
#[derive(Debug, Clone)]
pub struct Raw {
    /// Device `(x, y, demand, move cost rate)`.
    pub devices: Vec<(f64, f64, f64, f64)>,
    /// Chargers, indexed by id.
    pub chargers: Vec<RawCharger>,
}

/// One charger's prices and position.
#[derive(Debug, Clone, Copy)]
pub struct RawCharger {
    /// Position.
    pub pos: (f64, f64),
    /// Base fee per hire.
    pub fee: f64,
    /// Travel cost rate.
    pub tau: f64,
    /// Energy price.
    pub price: f64,
    /// Occupancy (congestion) rate.
    pub eta: f64,
    /// Energy budget per hire, if any.
    pub budget: Option<f64>,
}

impl Raw {
    /// Reads the raw data of `scenario`.
    pub fn of(scenario: &Scenario) -> Self {
        Raw {
            devices: scenario
                .devices()
                .iter()
                .map(|d| {
                    let p = d.position();
                    (p.x, p.y, d.demand().value(), d.move_cost_rate().value())
                })
                .collect(),
            chargers: scenario
                .chargers()
                .iter()
                .map(|c| RawCharger {
                    pos: (c.position().x, c.position().y),
                    fee: c.base_fee().value(),
                    tau: c.travel_cost_rate().value(),
                    price: c.energy_price().value(),
                    eta: c.occupancy_rate().value(),
                    budget: c.energy_budget().map(|b| b.value()),
                })
                .collect(),
        }
    }

    fn pos(&self, d: usize) -> (f64, f64) {
        (self.devices[d].0, self.devices[d].1)
    }

    fn can_deliver(&self, j: usize, demand: f64) -> bool {
        self.chargers[j].budget.is_none_or(|b| demand <= b)
    }

    /// The best solo cost of device `d`: for one device and one charger the
    /// spatial objective `tau * |q - p| + kappa * |p_d - p|` is minimized at
    /// the endpoint with the larger rate, so it equals
    /// `min(tau, kappa) * |q - p_d|`.
    pub fn solo_cost(&self, d: usize) -> f64 {
        let (x, y, w, kappa) = self.devices[d];
        (0..self.chargers.len())
            .filter(|&j| self.can_deliver(j, w))
            .map(|j| {
                let c = &self.chargers[j];
                c.fee + c.price * w + c.eta * curve(1) + c.tau.min(kappa) * dist(c.pos, (x, y))
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// One group of a reported plan.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupView {
    /// Charger id.
    pub charger: usize,
    /// Gathering point.
    pub point: (f64, f64),
    /// Member device ids.
    pub members: Vec<usize>,
    /// Reported base fee.
    pub base_fee: f64,
    /// Reported charger travel.
    pub travel: f64,
    /// Reported per-member energy charges.
    pub energy: Vec<f64>,
    /// Reported congestion.
    pub congestion: f64,
    /// Reported bill shares.
    pub shares: Vec<f64>,
    /// Reported moving costs.
    pub moving: Vec<f64>,
}

/// A reported plan: its groups and its reported total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// The groups.
    pub groups: Vec<GroupView>,
    /// The reported total comprehensive cost.
    pub total_cost: f64,
}

impl PlanView {
    /// Reads a plan from an in-memory schedule's public fields.
    pub fn of(schedule: &ccs_core::schedule::Schedule) -> Self {
        PlanView {
            groups: schedule
                .groups()
                .iter()
                .map(|g| GroupView {
                    charger: g.charger.index(),
                    point: (g.gathering_point.x, g.gathering_point.y),
                    members: g.members.iter().map(|m| m.index()).collect(),
                    base_fee: g.bill.base_fee.value(),
                    travel: g.bill.charger_travel.value(),
                    energy: g.bill.energy.iter().map(|c| c.value()).collect(),
                    congestion: g.bill.congestion.value(),
                    shares: g.shares.iter().map(|c| c.value()).collect(),
                    moving: g.moving.iter().map(|c| c.value()).collect(),
                })
                .collect(),
            total_cost: schedule.total_cost().value(),
        }
    }

    /// Reads a plan from a service `plan` result (`result.schedule` plus
    /// `result.total_cost`).
    pub fn parse(result: &Value) -> Result<Self, Violation> {
        let num = |v: &Value, what: &str| match v {
            Value::Number(n) => Ok(n.as_f64()),
            other => fail(format!("{what} is {} not a number", other.kind())),
        };
        let nums = |v: &Value, what: &str| match v {
            Value::Array(items) => items.iter().map(|x| num(x, what)).collect(),
            other => fail(format!("{what} is {} not an array", other.kind())),
        };
        let Value::Array(groups) = result.field("schedule").field("groups") else {
            return fail("result.schedule.groups is missing".to_string());
        };
        let mut out = Vec::with_capacity(groups.len());
        for g in groups {
            let bill = g.field("bill");
            let members: Vec<f64> = nums(g.field("members"), "members")?;
            out.push(GroupView {
                charger: num(g.field("charger"), "charger")? as usize,
                point: (
                    num(g.field("gathering_point").field("x"), "gathering_point.x")?,
                    num(g.field("gathering_point").field("y"), "gathering_point.y")?,
                ),
                members: members.iter().map(|&m| m as usize).collect(),
                base_fee: num(bill.field("base_fee"), "bill.base_fee")?,
                travel: num(bill.field("charger_travel"), "bill.charger_travel")?,
                energy: nums(bill.field("energy"), "bill.energy")?,
                congestion: num(bill.field("congestion"), "bill.congestion")?,
                shares: nums(g.field("shares"), "shares")?,
                moving: nums(g.field("moving"), "moving")?,
            });
        }
        Ok(PlanView {
            groups: out,
            total_cost: num(result.field("total_cost"), "total_cost")?,
        })
    }
}

/// What [`check_plan`] found besides the pass/fail verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFacts {
    /// Sum of the recomputed device costs.
    pub total_cost: f64,
    /// Number of devices.
    pub devices: usize,
    /// Devices paying more than their best solo cost (beyond the
    /// tolerance), as `(device, cost, solo cost)`.
    pub irrational: Vec<(usize, f64, f64)>,
}

impl PlanFacts {
    /// Fails on the first device that is not individually rational.
    pub fn require_ir(self) -> Result<Self, Violation> {
        match self.irrational.first() {
            None => Ok(self),
            Some(&(d, c, solo)) => fail(format!(
                "device {d} pays {c}, above its best solo cost {solo} (not individually rational)"
            )),
        }
    }
}

/// Checks one plan against the raw scenario: partition, group cap,
/// charger budgets, every bill term, equal shares, budget balance, moving
/// costs and the reported total. Individual rationality is measured into
/// [`PlanFacts::irrational`]; [`PlanFacts::require_ir`] makes it a check.
pub fn check_plan(
    raw: &Raw,
    plan: &PlanView,
    group_cap: Option<usize>,
) -> Result<PlanFacts, Violation> {
    let n = raw.devices.len();
    let mut seen = vec![0u32; n];
    let mut cost = vec![0.0; n];
    for (gi, g) in plan.groups.iter().enumerate() {
        let k = g.members.len();
        if k == 0 {
            return fail(format!("group {gi} is empty"));
        }
        if let Some(cap) = group_cap {
            if k > cap {
                return fail(format!("group {gi} has {k} members, over the cap {cap}"));
            }
        }
        if g.charger >= raw.chargers.len() {
            return fail(format!("group {gi} names charger {}", g.charger));
        }
        if g.energy.len() != k || g.shares.len() != k || g.moving.len() != k {
            return fail(format!("group {gi} has misaligned per-member lists"));
        }
        let c = raw.chargers[g.charger];
        let mut demand = 0.0;
        for &m in &g.members {
            if m >= n {
                return fail(format!("group {gi} names device {m}"));
            }
            seen[m] += 1;
            demand += raw.devices[m].2;
        }
        if !raw.can_deliver(g.charger, demand) {
            return fail(format!("group {gi} exceeds charger {}'s budget", g.charger));
        }
        let travel = c.tau * dist(c.pos, g.point);
        let congestion = c.eta * curve(k);
        for (what, want, got) in [
            ("base fee", c.fee, g.base_fee),
            ("charger travel", travel, g.travel),
            ("congestion", congestion, g.congestion),
        ] {
            if !close(want, got, PRICE_TOL) {
                return fail(format!(
                    "group {gi} {what}: reported {got}, recomputed {want}"
                ));
            }
        }
        let level = (c.fee + travel + congestion) / k as f64;
        let mut shares = 0.0;
        let mut bill = c.fee + travel + congestion;
        for (idx, &m) in g.members.iter().enumerate() {
            let energy = c.price * raw.devices[m].2;
            let share = level + energy;
            let moving = raw.devices[m].3 * dist(raw.pos(m), g.point);
            for (what, want, got) in [
                ("energy", energy, g.energy[idx]),
                ("share", share, g.shares[idx]),
                ("moving cost", moving, g.moving[idx]),
            ] {
                if !close(want, got, PRICE_TOL) {
                    return fail(format!(
                        "group {gi} device {m} {what}: reported {got}, recomputed {want}"
                    ));
                }
            }
            shares += g.shares[idx];
            bill += energy;
            cost[m] = share + moving;
        }
        if !close(shares, bill, PRICE_TOL) {
            return fail(format!("group {gi} shares sum to {shares}, bill is {bill}"));
        }
    }
    if let Some(d) = seen.iter().position(|&s| s != 1) {
        return fail(format!("device {d} appears in {} groups", seen[d]));
    }
    let total: f64 = cost.iter().sum();
    if !close(total, plan.total_cost, PRICE_TOL) {
        return fail(format!(
            "total cost: reported {}, recomputed {total}",
            plan.total_cost
        ));
    }
    let irrational = cost
        .iter()
        .enumerate()
        .map(|(d, &c)| (d, c, raw.solo_cost(d)))
        .filter(|&(_, c, solo)| c > solo * (1.0 + GATHER_TOL))
        .collect();
    Ok(PlanFacts {
        total_cost: total,
        devices: n,
        irrational,
    })
}

/// Weighted geometric median by Weiszfeld iterations, run tighter than the
/// program's (1e-10 m, 5000 iterations) so it never stops earlier.
fn weiszfeld(anchors: &[((f64, f64), f64)]) -> (f64, f64) {
    let wsum: f64 = anchors.iter().map(|a| a.1).sum();
    let mut p = (
        anchors.iter().map(|a| a.0 .0 * a.1).sum::<f64>() / wsum,
        anchors.iter().map(|a| a.0 .1 * a.1).sum::<f64>() / wsum,
    );
    let objective = |p: (f64, f64)| anchors.iter().map(|a| a.1 * dist(a.0, p)).sum::<f64>();
    for _ in 0..5000 {
        let (mut nx, mut ny, mut den) = (0.0, 0.0, 0.0);
        let mut on_anchor = false;
        for &(a, w) in anchors {
            let d = dist(a, p);
            if d < 1e-12 {
                on_anchor = true;
                continue;
            }
            nx += a.0 * w / d;
            ny += a.1 * w / d;
            den += w / d;
        }
        if den == 0.0 {
            break;
        }
        let next = (nx / den, ny / den);
        if on_anchor {
            // Sitting on an anchor: the classic iteration is undefined there;
            // keep the anchor if the step does not improve the objective.
            if objective(next) >= objective(p) {
                break;
            }
        }
        let moved = dist(next, p);
        p = next;
        if moved < 1e-10 {
            break;
        }
    }
    // Weiszfeld approaches an optimal anchor only slowly; snap to the best
    // anchor when it is at least as good.
    anchors
        .iter()
        .map(|a| a.0)
        .chain(std::iter::once(p))
        .min_by(|&a, &b| objective(a).total_cmp(&objective(b)))
        .expect("anchors are nonempty")
}

/// Device `d`'s equal-sharing cost in `members` (which contains `d`),
/// under each charger's group-cost-optimal gathering point. The program
/// hires the charger of least group cost; when several chargers tie
/// within the tolerance, the device's highest cost among them is taken,
/// so a tie broken either way never reads as a violation.
fn member_cost(raw: &Raw, members: &[usize], d: usize) -> f64 {
    let demand: f64 = members.iter().map(|&m| raw.devices[m].2).sum();
    let k = members.len();
    let mut options: Vec<(f64, f64)> = Vec::new();
    for (j, c) in raw.chargers.iter().enumerate() {
        if !raw.can_deliver(j, demand) {
            continue;
        }
        let mut anchors: Vec<((f64, f64), f64)> = members
            .iter()
            .map(|&m| (raw.pos(m), raw.devices[m].3))
            .collect();
        anchors.push((c.pos, c.tau));
        let p = weiszfeld(&anchors);
        let level = c.fee + c.tau * dist(c.pos, p) + c.eta * curve(k);
        let group: f64 = level
            + members
                .iter()
                .map(|&m| c.price * raw.devices[m].2 + raw.devices[m].3 * dist(raw.pos(m), p))
                .sum::<f64>();
        let own =
            level / k as f64 + c.price * raw.devices[d].2 + raw.devices[d].3 * dist(raw.pos(d), p);
        options.push((group, own));
    }
    let best = options.iter().map(|o| o.0).fold(f64::INFINITY, f64::min);
    options
        .iter()
        .filter(|o| o.0 <= best * (1.0 + GATHER_TOL))
        .map(|o| o.1)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Nash stability by a unilateral-deviation scan: no device lowers its own
/// cost by more than the tolerance by moving alone to another group or to
/// a solo hire. Assumes [`check_plan`] passed (the partition is valid).
pub fn check_nash(raw: &Raw, plan: &PlanView, group_cap: Option<usize>) -> Result<(), Violation> {
    for (gi, g) in plan.groups.iter().enumerate() {
        for (idx, &d) in g.members.iter().enumerate() {
            let current = g.shares[idx] + g.moving[idx];
            let slack = current * GATHER_TOL;
            if g.members.len() > 1 && raw.solo_cost(d) < current - slack {
                return fail(format!(
                    "device {d} gains by leaving group {gi} to go solo (not Nash stable)"
                ));
            }
            for (ti, t) in plan.groups.iter().enumerate() {
                if ti == gi || group_cap.is_some_and(|cap| t.members.len() >= cap) {
                    continue;
                }
                let mut joined = t.members.clone();
                joined.push(d);
                joined.sort_unstable();
                if member_cost(raw, &joined, d) < current - slack {
                    return fail(format!(
                        "device {d} gains by moving from group {gi} to group {ti} (not Nash stable)"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::prelude::*;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn planned(seed: u64) -> (Raw, PlanView) {
        let scenario = ScenarioGenerator::new(seed)
            .devices(20)
            .chargers(5)
            .generate();
        let raw = Raw::of(&scenario);
        let problem = CcsProblem::new(scenario);
        let outcome = ccsga(&problem, &EqualShare, CcsgaOptions::default());
        (raw, PlanView::of(&outcome.schedule))
    }

    #[test]
    fn a_real_plan_passes_every_check() {
        for seed in 0..4 {
            let (raw, plan) = planned(seed);
            let facts = check_plan(&raw, &plan, None)
                .and_then(PlanFacts::require_ir)
                .expect("plan passes");
            assert_eq!(facts.devices, 20);
            check_nash(&raw, &plan, None).expect("ccsga result is Nash stable");
        }
    }

    #[test]
    fn a_share_off_by_one_percent_is_rejected() {
        let (raw, mut plan) = planned(1);
        plan.groups[0].shares[0] *= 1.01;
        assert!(check_plan(&raw, &plan, None).is_err());
    }

    #[test]
    fn a_moving_cost_off_by_one_percent_is_rejected() {
        let (raw, mut plan) = planned(1);
        let g = plan.groups.iter_mut().find(|g| g.moving[0] > 1.0).unwrap();
        g.moving[0] *= 1.01;
        assert!(check_plan(&raw, &plan, None).is_err());
    }

    #[test]
    fn a_total_cost_off_by_one_percent_is_rejected() {
        let (raw, mut plan) = planned(2);
        plan.total_cost *= 1.01;
        assert!(check_plan(&raw, &plan, None).is_err());
    }

    /// Everyone alone: the noncooperative plan of the same instance.
    fn solo_plan(seed: u64) -> (Raw, PlanView) {
        let scenario = ScenarioGenerator::new(seed)
            .devices(20)
            .chargers(5)
            .generate();
        let raw = Raw::of(&scenario);
        let problem = CcsProblem::new(scenario);
        (raw, PlanView::of(&noncooperation(&problem, &EqualShare)))
    }

    #[test]
    fn a_dropped_device_is_rejected() {
        let (raw, mut plan) = solo_plan(3);
        check_plan(&raw, &plan, None).expect("the solo plan passes");
        let dropped = plan.groups.remove(7);
        plan.total_cost -= dropped.shares[0] + dropped.moving[0];
        let err = check_plan(&raw, &plan, None).unwrap_err();
        assert!(err.0.contains("in 0 groups"), "{err:?}");
    }

    #[test]
    fn a_group_over_the_cap_is_rejected() {
        let (raw, plan) = planned(0);
        let largest = plan.groups.iter().map(|g| g.members.len()).max().unwrap();
        assert!(largest > 1);
        assert!(check_plan(&raw, &plan, Some(largest - 1)).is_err());
    }

    #[test]
    fn a_device_paying_above_its_solo_cost_is_rejected() {
        // A consistent bill at a far gathering point: every price
        // recomputes, but the device would do better alone.
        let (raw, mut plan) = solo_plan(0);
        let g = &mut plan.groups[0];
        let d = g.members[0];
        let c = raw.chargers[g.charger];
        g.point = (raw.devices[d].0 + 50.0, raw.devices[d].1 + 50.0);
        g.travel = c.tau * dist(c.pos, g.point);
        g.shares[0] = g.base_fee + g.travel + g.congestion + g.energy[0];
        g.moving[0] = raw.devices[d].3 * dist(raw.pos(d), g.point);
        plan.total_cost = plan.groups.iter().map(|g| g.shares[0] + g.moving[0]).sum();
        let facts = check_plan(&raw, &plan, None).expect("prices recompute");
        assert_eq!(facts.irrational.len(), 1);
        let err = facts.require_ir().unwrap_err();
        assert!(err.0.contains("individually rational"), "{err:?}");
    }

    #[test]
    fn solo_cost_matches_a_brute_force_search() {
        let (raw, _) = planned(5);
        for d in 0..5 {
            let (x, y, w, kappa) = raw.devices[d];
            let mut best = f64::INFINITY;
            for c in &raw.chargers {
                for step in 0..=1000 {
                    let t = step as f64 / 1000.0;
                    let p = (c.pos.0 + (x - c.pos.0) * t, c.pos.1 + (y - c.pos.1) * t);
                    let cost = c.fee
                        + c.price * w
                        + c.eta
                        + c.tau * dist(c.pos, p)
                        + kappa * dist((x, y), p);
                    best = best.min(cost);
                }
            }
            assert!(close(raw.solo_cost(d), best, 1e-12), "{d}");
        }
    }

    #[test]
    fn an_unstable_partition_is_rejected() {
        // Everyone solo except two far-apart devices forced together: at
        // least one of them gains by leaving.
        let (raw, plan) = planned(4);
        let problem = CcsProblem::new(ScenarioGenerator::new(4).devices(20).chargers(5).generate());
        let far = (1..20)
            .max_by(|&a, &b| dist(raw.pos(0), raw.pos(a)).total_cmp(&dist(raw.pos(0), raw.pos(b))))
            .unwrap();
        let mut groups = Vec::new();
        let pair = [
            ccs_wrsn::entities::DeviceId::new(0),
            ccs_wrsn::entities::DeviceId::new(far as u32),
        ];
        let f = best_facility(&problem, &pair);
        groups.push(GroupPlan::from_facility(
            &problem,
            pair.to_vec(),
            f,
            &EqualShare,
        ));
        for d in (1..20).filter(|&d| d != far) {
            let m = [ccs_wrsn::entities::DeviceId::new(d as u32)];
            let f = best_facility(&problem, &m);
            groups.push(GroupPlan::from_facility(
                &problem,
                m.to_vec(),
                f,
                &EqualShare,
            ));
        }
        let forced = PlanView::of(&Schedule::new(groups, "test", "equal"));
        assert!(check_nash(&raw, &forced, None).is_err());
        assert!(check_nash(&raw, &plan, None).is_ok());
    }
}

/// One admitted online commitment, as the check reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitView {
    /// Fleet charger id.
    pub charger: usize,
    /// Stream indices served.
    pub requests: Vec<usize>,
    /// Devices served, aligned with `requests`.
    pub devices: Vec<usize>,
    /// Gathering point.
    pub point: (f64, f64),
    /// Admission time.
    pub committed_at: f64,
    /// Completion time.
    pub completes_at: f64,
    /// Energy delivered.
    pub delivered: f64,
    /// The group's bill.
    pub bill: f64,
    /// Whether the charger refilled at its depot first.
    pub refill_first: bool,
}

impl CommitView {
    /// Reads a commitment's public fields.
    pub fn of(c: &ccs_core::online::Commitment) -> Self {
        CommitView {
            charger: c.charger.index(),
            requests: c.requests.clone(),
            devices: c.devices.iter().map(|d| d.index()).collect(),
            point: (c.gathering_point.x, c.gathering_point.y),
            committed_at: c.committed_at.value(),
            completes_at: c.completes_at.value(),
            delivered: c.delivered.value(),
            bill: c.bill.value(),
            refill_first: c.refill_first,
        }
    }
}

/// One request of the benchmark's own stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReq {
    /// Requesting device.
    pub device: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Deadline.
    pub deadline: f64,
}

/// A charger tank: capacity, drain per meter, drain per joule delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tank {
    /// Capacity in joules.
    pub cap: f64,
    /// Joules per meter travelled.
    pub per_meter: f64,
    /// Joules drawn per joule delivered.
    pub per_joule: f64,
}

/// What [`check_online`] recomputed from one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineFacts {
    /// Requests served.
    pub served: usize,
    /// Sum of recomputed bills plus members' moving costs.
    pub cost: f64,
    /// Tank energy consumed, by the check's own ledger.
    pub consumed: f64,
}

/// Checks one online replay: every served request ends by its deadline
/// in the benchmark's own stream, no request is served twice, served plus
/// missed equals arrivals, each bill and delivery recomputes, and a tank
/// ledger replayed from the commitments never goes negative and matches
/// the reported consumption.
pub fn check_online(
    raw: &Raw,
    stream: &[StreamReq],
    tank: Tank,
    commits: &[CommitView],
    served: usize,
    missed: usize,
    consumed: f64,
) -> Result<OnlineFacts, Violation> {
    const EPS: f64 = 1e-6;
    let mut pos: Vec<(f64, f64)> = raw.chargers.iter().map(|c| c.pos).collect();
    let mut level = vec![tank.cap; raw.chargers.len()];
    let mut done = vec![false; stream.len()];
    let mut facts = OnlineFacts {
        served: 0,
        cost: 0.0,
        consumed: 0.0,
    };
    for (ci, c) in commits.iter().enumerate() {
        let j = c.charger;
        if j >= raw.chargers.len() || c.requests.len() != c.devices.len() || c.requests.is_empty() {
            return fail(format!("commitment {ci} is malformed"));
        }
        let mut demand = 0.0;
        for (&r, &d) in c.requests.iter().zip(&c.devices) {
            let Some(req) = stream.get(r) else {
                return fail(format!("commitment {ci} names request {r}"));
            };
            if done[r] {
                return fail(format!("request {r} is served twice"));
            }
            done[r] = true;
            if req.device != d {
                return fail(format!(
                    "request {r} is device {}, served as {d}",
                    req.device
                ));
            }
            if c.completes_at > req.deadline + EPS {
                return fail(format!(
                    "request {r} completes at {} after its deadline {}",
                    c.completes_at, req.deadline
                ));
            }
            if c.committed_at + EPS < req.arrival {
                return fail(format!("request {r} is committed before it arrives"));
            }
            demand += raw.devices[d].2;
        }
        if !close(demand, c.delivered, PRICE_TOL) {
            return fail(format!(
                "commitment {ci} delivers {}, demand is {demand}",
                c.delivered
            ));
        }
        let ch = raw.chargers[j];
        let k = c.devices.len();
        let bill = ch.fee
            + ch.tau * dist(pos[j], c.point)
            + c.devices
                .iter()
                .map(|&d| ch.price * raw.devices[d].2)
                .sum::<f64>()
            + ch.eta * curve(k);
        if !close(bill, c.bill, PRICE_TOL) {
            return fail(format!(
                "commitment {ci} bill: reported {}, recomputed {bill}",
                c.bill
            ));
        }
        facts.cost += bill
            + c.devices
                .iter()
                .map(|&d| raw.devices[d].3 * dist(raw.pos(d), c.point))
                .sum::<f64>();
        if c.refill_first {
            let ride = dist(pos[j], ch.pos) * tank.per_meter;
            if ride > level[j] + EPS {
                return fail(format!(
                    "charger {j} runs dry riding home before commitment {ci}"
                ));
            }
            facts.consumed += ride.min(level[j]);
            level[j] = tank.cap;
            pos[j] = ch.pos;
        }
        let need = dist(pos[j], c.point) * tank.per_meter + c.delivered * tank.per_joule;
        level[j] -= need;
        if level[j] < -EPS {
            return fail(format!(
                "charger {j}'s energy goes negative ({}) at commitment {ci}",
                level[j]
            ));
        }
        facts.consumed += need;
        pos[j] = c.point;
        facts.served += k;
    }
    if facts.served != served {
        return fail(format!(
            "commitments serve {}, report says {served}",
            facts.served
        ));
    }
    if served + missed != stream.len() {
        return fail(format!(
            "served {served} + missed {missed} != arrivals {}",
            stream.len()
        ));
    }
    if !close(facts.consumed, consumed, PRICE_TOL) {
        return fail(format!(
            "energy consumed: reported {consumed}, ledger {}",
            facts.consumed
        ));
    }
    Ok(facts)
}

/// Checks that a response body equals the reference body byte for byte.
pub fn check_body(framing: &str, reference: &str, got: &str) -> Result<(), Violation> {
    if reference == got {
        return Ok(());
    }
    let at = reference
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(got.len()));
    fail(format!(
        "{framing} body differs from the reference at byte {at}"
    ))
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use ccs_core::online::{OnlineConfig, OnlineSim};
    use ccs_core::prelude::*;
    use ccs_wrsn::arrival::{ArrivalGenerator, ArrivalProfile};
    use ccs_wrsn::scenario::ScenarioGenerator;

    struct Replay {
        raw: Raw,
        stream: Vec<StreamReq>,
        tank: Tank,
        commits: Vec<CommitView>,
        served: usize,
        missed: usize,
        consumed: f64,
    }

    fn replay() -> Replay {
        let scenario = ScenarioGenerator::new(211)
            .devices(30)
            .chargers(4)
            .generate();
        let requests = ArrivalGenerator::new(9)
            .rate(0.3)
            .horizon(240.0)
            .slack(500.0)
            .profile(ArrivalProfile::Hotspot {
                fraction: 0.2,
                share: 0.8,
            })
            .generate(30);
        let config = OnlineConfig::default();
        let raw = Raw::of(&scenario);
        let stream = requests
            .iter()
            .map(|r| StreamReq {
                device: r.device.index(),
                arrival: r.arrival.value(),
                deadline: r.deadline.value(),
            })
            .collect();
        let report = OnlineSim::new(CcsProblem::new(scenario), requests, &EqualShare, config).run();
        Replay {
            raw,
            stream,
            tank: Tank {
                cap: config.energy.battery_cap.value(),
                per_meter: config.energy.ecr_move,
                per_joule: config.energy.ecr_charge,
            },
            commits: report.commitments.iter().map(CommitView::of).collect(),
            served: report.metrics.served,
            missed: report.metrics.missed,
            consumed: report.metrics.energy_consumed.value(),
        }
    }

    fn check(r: &Replay) -> Result<OnlineFacts, Violation> {
        check_online(
            &r.raw, &r.stream, r.tank, &r.commits, r.served, r.missed, r.consumed,
        )
    }

    #[test]
    fn a_real_replay_passes() {
        let r = replay();
        let facts = check(&r).expect("replay passes");
        assert!(facts.served > 0 && facts.cost > 0.0);
    }

    #[test]
    fn a_request_served_after_its_deadline_is_rejected() {
        let mut r = replay();
        let first = r.commits[0].requests[0];
        r.stream[first].deadline = r.commits[0].completes_at - 1.0;
        let err = check(&r).unwrap_err();
        assert!(err.0.contains("deadline"), "{err:?}");
    }

    #[test]
    fn a_bill_off_by_one_percent_is_rejected() {
        let mut r = replay();
        r.commits[0].bill *= 1.01;
        assert!(check(&r).is_err());
    }

    #[test]
    fn a_dropped_commitment_breaks_the_accounting() {
        let mut r = replay();
        r.commits.pop();
        assert!(check(&r).is_err());
    }

    #[test]
    fn an_overdrawn_tank_is_rejected() {
        let mut r = replay();
        r.tank.cap = r.commits[0].delivered * r.tank.per_joule * 0.5;
        let err = check(&r).unwrap_err();
        assert!(
            err.0.contains("negative") || err.0.contains("dry"),
            "{err:?}"
        );
    }

    #[test]
    fn a_differing_body_is_rejected() {
        assert!(check_body("http", r#"{"a":1}"#, r#"{"a":1}"#).is_ok());
        let err = check_body("http", r#"{"a":1}"#, r#"{"a":2}"#).unwrap_err();
        assert!(err.0.contains("byte 5"), "{err:?}");
        assert!(check_body("jsonl", r#"{"a":1}"#, r#"{"a":1} "#).is_err());
    }
}
