//! `crash`: crash → recover → verify through every harness path that
//! does it — two crash campaigns, the Figure 11 recovery cells, and
//! serving with a crash mid-trace.

use crate::metrics::{Failure, Pass};
use crate::serve::{expected_trace, serve_checked, Rung};
use crate::trace::Tracer;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::campaign::{self, CampaignReport, CampaignSpec};
use sbrp_harness::serve::{ServeModel, ServeSpec};
use sbrp_harness::sweep::SweepOpts;
use sbrp_harness::{default_scale, run_recovery, RunSpec};
use sbrp_workloads::WorkloadKind;

/// Crash point of the Figure 11 recovery cells, as a fraction of the
/// crash-free runtime.
const RECOVERY_FRACTION: f64 = 0.9;

/// Documented defects of the modelled system that the inter-thread
/// campaign reaches (README, "Known failures"), by the exact operation
/// that fails. A failure of any other operation, even another point or
/// the baseline of one of these cells, is not known.
const KNOWN: [&str; 4] = [
    "campaign Red Sbrp/far baseline",
    "campaign Scan Sbrp/near drain@459",
    "campaign Scan Sbrp/far wpq@459",
    "campaign Scan Sbrp/far wpq@524",
];

fn failure(op: String, detail: String) -> Failure {
    let known = KNOWN.contains(&op.as_str());
    Failure { op, detail, known }
}

pub struct Crash {
    /// The logging-app campaign, then the inter-thread one whose cells
    /// have the documented defects.
    campaigns: Vec<CampaignSpec>,
    recoveries: Vec<RunSpec>,
    serves: Vec<Rung>,
}

pub fn setup(smoke: bool, seed: u64) -> Crash {
    let logging = if smoke {
        CampaignSpec {
            workloads: vec![WorkloadKind::Gpkvs],
            scale: Some(128),
            points_per_cell: 3,
            seed,
            ..CampaignSpec::quick()
        }
    } else {
        CampaignSpec {
            seed,
            ..CampaignSpec::quick()
        }
    };
    let interthread = CampaignSpec {
        workloads: vec![WorkloadKind::Reduction, WorkloadKind::Scan],
        models: vec![ModelKind::Sbrp],
        systems: vec![SystemDesign::PmNear, SystemDesign::PmFar],
        scale: Some(1024),
        seed,
        points_per_cell: if smoke { 4 } else { 20 },
        small_gpu: true,
    };
    // Always the Table 1 GPU: on the small one, Scan SBRP-near recovery
    // hits the same defect the inter-thread campaign documents.
    let recoveries = WorkloadKind::ALL
        .into_iter()
        .flat_map(|workload| {
            [ModelKind::Epoch, ModelKind::Sbrp].map(|model| RunSpec {
                workload,
                model,
                system: SystemDesign::PmNear,
                scale: if smoke { 256 } else { default_scale(workload) },
                seed,
                ..RunSpec::default()
            })
        })
        .collect();
    let serves = [ServeModel::Sbrp, ServeModel::Gpm]
        .into_iter()
        .map(|model| {
            let mut spec = ServeSpec {
                model,
                seed,
                small_gpu: smoke,
                ..ServeSpec::default()
            };
            if smoke {
                spec.requests = 256;
                spec.scale = 256;
            }
            let trace = expected_trace(&spec);
            spec.crash_at = Some(trace[trace.len() / 2].arrival);
            Rung { spec, trace }
        })
        .collect();
    Crash {
        campaigns: vec![logging, interthread],
        recoveries,
        serves,
    }
}

/// Adds a campaign's attempts, counts and failures to the pass.
fn record_campaign(pass: &mut Pass, report: &CampaignReport) {
    for cell in &report.cells {
        let name = format!(
            "campaign {} {:?}/{}",
            cell.workload, cell.model, cell.system
        );
        pass.attempted += 1 + cell.points.len() as u64;
        pass.add("harness.campaign.points", cell.points.len() as f64);
        pass.add("harness.campaign.violations", cell.violations() as f64);
        pass.add("harness.campaign.pmo_clean", cell.pmo_clean() as f64);
        pass.add("harness.campaign.recovered", cell.recovered() as f64);
        if let Some(e) = &cell.baseline_error {
            pass.add("harness.campaign.baseline_failures", 1.0);
            pass.failures
                .push(failure(format!("{name} baseline"), e.clone()));
        }
        for p in cell.points.iter().filter(|p| !p.outcome.is_pass()) {
            pass.failures.push(failure(
                format!("{name} {}@{}", p.family.label(), p.k),
                format!("{:?}", p.outcome),
            ));
        }
    }
}

impl Crash {
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut req = 0u64;
        for spec in &self.campaigns {
            let report = tr.span("crash.op", req, |tr| {
                tr.span("harness.campaign", req, |_| {
                    campaign::run_with_opts(spec, &SweepOpts::serial(), |_| {})
                })
            });
            record_campaign(&mut pass, &report);
            req += 1;
        }
        for spec in &self.recoveries {
            pass.attempted += 1;
            let out = tr.span("crash.op", req, |tr| {
                tr.span("harness.recovery", req, |_| {
                    run_recovery(spec, RECOVERY_FRACTION)
                })
            });
            match out {
                Ok(o) if o.verified => {
                    pass.add("harness.recovery.cycles", o.recovery_cycles as f64)
                }
                Ok(_) => pass.failures.push(Failure::new(
                    format!("recovery {}", spec.cell_name()),
                    "recovered state failed verification",
                )),
                Err(e) => pass.failures.push(Failure::new(
                    format!("recovery {}", spec.cell_name()),
                    e.to_string(),
                )),
            }
            req += 1;
        }
        for rung in &self.serves {
            pass.attempted += 1;
            let out = tr.span("crash.op", req, |tr| serve_checked(rung, tr, req));
            match out {
                Ok(o) if o.crash_cycle.is_some() => {
                    pass.add("harness.serve.requests", rung.trace.len() as f64);
                    pass.add("harness.serve.replayed", o.replayed as f64);
                }
                Ok(_) => pass.failures.push(Failure::new(
                    format!("crash {}", rung.spec.cell_name()),
                    "the crash point was never reached",
                )),
                Err(e) => pass
                    .failures
                    .push(Failure::new(format!("crash {}", rung.spec.cell_name()), e)),
            }
            req += 1;
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrp_harness::campaign::{CellReport, PointOutcome, PointRecord, TriggerFamily};

    fn cell(
        workload: WorkloadKind,
        system: SystemDesign,
        bad: &[(TriggerFamily, u64)],
    ) -> CellReport {
        let violation = PointOutcome::Violation {
            stage: "crash-consistent".into(),
            detail: "marker before data".into(),
        };
        CellReport {
            workload,
            model: ModelKind::Sbrp,
            system,
            counts: Default::default(),
            baseline_cycles: 0,
            points: bad
                .iter()
                .map(|&(family, k)| PointRecord {
                    family,
                    k,
                    outcome: violation.clone(),
                    pmo_clean: true,
                    recovered: false,
                })
                .collect(),
            shrunk: Vec::new(),
            baseline_error: None,
        }
    }

    #[test]
    fn only_the_documented_operations_are_known() {
        let mut scan_far = cell(
            WorkloadKind::Scan,
            SystemDesign::PmFar,
            &[
                (TriggerFamily::WpqAccept, 459),
                (TriggerFamily::WpqAccept, 524),
            ],
        );
        scan_far.baseline_error = Some("a new baseline error".into());
        let report = CampaignReport {
            cells: vec![
                cell(
                    WorkloadKind::Scan,
                    SystemDesign::PmNear,
                    // The documented point, then another point of the cell.
                    &[(TriggerFamily::PbDrain, 459), (TriggerFamily::PbDrain, 460)],
                ),
                scan_far,
            ],
        };
        let mut pass = Pass::default();
        record_campaign(&mut pass, &report);
        let known: Vec<_> = pass
            .failures
            .iter()
            .map(|f| (f.op.as_str(), f.known))
            .collect();
        assert_eq!(
            known,
            [
                ("campaign Scan Sbrp/near drain@459", true),
                ("campaign Scan Sbrp/near drain@460", false),
                ("campaign Scan Sbrp/far baseline", false),
                ("campaign Scan Sbrp/far wpq@459", true),
                ("campaign Scan Sbrp/far wpq@524", true),
            ]
        );
        assert_eq!(pass.attempted, 2 + 4);
    }
}
