//! `online_contended`: end-to-end `OnlineSim` replays of contended
//! hotspot streams with the CCSGA policy. The operation is one re-plan:
//! an event step (an arrival or a charger coming free) that extracts the
//! residual problem, builds its tables, runs a cold CCSGA and admits
//! commitments. Steps that plan nothing take microseconds and are counted
//! only in the replay time. Each replay is checked whole; a replay that
//! fails a check fails all of its re-plans.

use crate::check::{check_online, CommitView, Raw, StreamReq, Tank};
use crate::layers::{time_us, Layers};
use crate::{mix, ms_since, Phase, Workload};
use ccs_core::gathering::{gathering_point, GatheringStrategy};
use ccs_core::online::{EventKind, OnlineConfig, OnlineSim};
use ccs_core::prelude::*;
use ccs_wrsn::arrival::{ArrivalGenerator, ArrivalProfile, ChargeRequest};
use ccs_wrsn::scenario::{Scenario, ScenarioGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Distinct streams generated per run.
const POOL: u64 = 128;

/// One contended stream: 30 devices, 4 chargers, a hotspot of 20% of the
/// devices sending 80% of about 70 requests over 240 s, 500 s of slack.
fn generate(seed: u64) -> (Scenario, Vec<ChargeRequest>) {
    let scenario = ScenarioGenerator::new(mix(seed, 1))
        .devices(30)
        .chargers(4)
        .generate();
    let requests = ArrivalGenerator::new(mix(seed, 2))
        .rate(0.3)
        .horizon(240.0)
        .slack(500.0)
        .profile(ArrivalProfile::Hotspot {
            fraction: 0.2,
            share: 0.8,
        })
        .generate(30);
    (scenario, requests)
}

struct Stream {
    scenario: Scenario,
    raw: Raw,
    requests: Vec<ChargeRequest>,
    reqs: Vec<StreamReq>,
}

/// Served requests, energy consumed and replays of the latest phase.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    replays: u64,
    served: u64,
    consumed_j: f64,
}

/// The workload state.
pub struct Contended {
    seed: u64,
    pool: Vec<Stream>,
    tally: Tally,
}

impl Contended {
    /// Generates the stream pool and builds every instance's problem and
    /// tables once (each replay builds its own again, from scratch).
    pub fn setup(seed: u64) -> Self {
        let pool: Vec<Stream> = (0..POOL)
            .map(|i| {
                let (scenario, requests) = generate(mix(seed, i));
                let reqs = requests
                    .iter()
                    .map(|r| StreamReq {
                        device: r.device.index(),
                        arrival: r.arrival.value(),
                        deadline: r.deadline.value(),
                    })
                    .collect();
                Stream {
                    raw: Raw::of(&scenario),
                    scenario,
                    requests,
                    reqs,
                }
            })
            .collect();
        for stream in &pool {
            black_box(CcsProblem::new(stream.scenario.clone()).tables());
        }
        Contended {
            seed,
            pool,
            tally: Tally::default(),
        }
    }
}

impl Workload for Contended {
    fn phase(&mut self, seconds: f64) -> Phase {
        let config = OnlineConfig::default();
        let tank = Tank {
            cap: config.energy.battery_cap.value(),
            per_meter: config.energy.ecr_move,
            per_joule: config.energy.ecr_charge,
        };
        let mut phase = Phase::default();
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            let stream = &self.pool[i % self.pool.len()];
            crate::alloc::reset_peak();
            let begin = Instant::now();
            let mut sim = OnlineSim::new(
                CcsProblem::new(black_box(stream.scenario.clone())),
                stream.requests.clone(),
                &EqualShare,
                config,
            );
            let mut replay_ms = ms_since(begin);
            let mut replans = Vec::new();
            let mut arrived = 0u64;
            loop {
                let t = Instant::now();
                let Some(outcome) = sim.step() else { break };
                let ms = ms_since(t);
                replay_ms += ms;
                if matches!(outcome.kind, EventKind::Arrival(_)) {
                    arrived += 1;
                }
                if outcome.replan.is_some() {
                    replans.push(ms);
                }
            }
            let report = sim.run();
            phase.peaks_mb.push(crate::alloc::peak_mb());
            let n = replans.len() as u64;
            phase.attempted += n;
            phase.lat_ms.extend(replans);
            phase.items += arrived as f64;
            phase.item_secs += replay_ms / 1e3;
            let commits: Vec<CommitView> = report.commitments.iter().map(CommitView::of).collect();
            let m = &report.metrics;
            match check_online(
                &stream.raw,
                &stream.reqs,
                tank,
                &commits,
                m.served,
                m.missed,
                m.energy_consumed.value(),
            ) {
                Ok(facts) => {
                    phase.cost_sum += facts.cost;
                    phase.cost_devices += facts.served as f64;
                    tally.served += facts.served as u64;
                    tally.consumed_j += facts.consumed;
                    tally.replays += 1;
                }
                Err(v) => phase.fail(&v.0, n),
            }
            i += 1;
        }
        self.tally = tally;
        phase
    }

    fn summary(&self) -> String {
        let t = self.tally;
        format!(
            ", replays {}, served_requests {:.3} per replay, energy_per_served_kj {:.4}",
            t.replays,
            t.served as f64 / t.replays.max(1) as f64,
            t.consumed_j / t.served.max(1) as f64 / 1e3
        )
    }

    fn probe_layers(&mut self, l: &mut Layers) {
        let t = self.tally;
        l.set(
            "online.served_requests",
            t.served as f64 / t.replays.max(1) as f64,
        );
        l.set(
            "online.energy_per_served_kj",
            t.consumed_j / t.served.max(1) as f64 / 1e3,
        );
        // The first stream of the pool: the same inputs whatever the speed.
        let seed = mix(self.seed, 0);
        let stream = &self.pool[0];
        l.set(
            "wrsn.generate_ms",
            time_us(5, || drop(black_box(generate(seed)))) / 1e3,
        );
        l.set(
            "tables.build_ms",
            time_us(5, || {
                black_box(CcsProblem::new(stream.scenario.clone()).tables());
            }) / 1e3,
        );
        // Its residual re-plans, replayed untimed: the coalitions the online
        // loop prices.
        let mut sim = OnlineSim::new(
            CcsProblem::new(stream.scenario.clone()),
            stream.requests.clone(),
            &EqualShare,
            OnlineConfig::default(),
        );
        let mut records = Vec::new();
        while let Some(outcome) = sim.step() {
            records.extend(outcome.replan.map(|r| (r.problem, r.schedule)));
        }
        let mut solve = Vec::new();
        let mut scan = Vec::new();
        for (residual, schedule) in &records {
            // A copy with freshly built tables: a cold gather memo.
            let fresh =
                CcsProblem::with_params(residual.scenario().clone(), residual.params().clone());
            fresh.tables();
            for g in schedule.groups() {
                solve.push(time_us(5, || {
                    black_box(gathering_point(
                        residual,
                        g.charger,
                        &g.members,
                        GatheringStrategy::Weiszfeld,
                    ));
                }));
                scan.push(time_us(1, || {
                    black_box(best_facility(&fresh, &g.members));
                }));
            }
        }
        l.set("gathering.solve_us", crate::stats::mean(&solve));
        l.set("cost.best_facility_us", crate::stats::mean(&scan));
        if let Some((residual, schedule)) = records.last() {
            l.set(
                "schedule.validate_us",
                time_us(5, || {
                    black_box(schedule.validate(residual)).expect("residual plans validate");
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
    }
}
