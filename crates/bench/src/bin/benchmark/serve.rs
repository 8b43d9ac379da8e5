//! `serve`: SBRP-near open-loop serving (Poisson arrivals, Zipf θ 0.99)
//! on a ladder of offered rates, one `run_service` call per rung.

use crate::metrics::{Failure, Pass};
use crate::trace::Tracer;
use sbrp_harness::serve::{run_service_detailed, ServeModel, ServeOutput, ServeSpec};
use sbrp_workloads::service::{generate_trace, ArrivalKind, Request, ServiceStore, TraceParams};

/// The rung whose latency percentiles are reported.
const HEADLINE_RATE: u64 = 32;
/// p99.9 latency limit (cycles) a rung must meet to count towards
/// `max_rate_rpkc`.
const P999_LIMIT: u64 = 5000;

/// One rung: the spec and the arrival trace `run_service` must replay.
pub struct Rung {
    pub spec: ServeSpec,
    pub trace: Vec<Request>,
}

/// The arrival trace `run_service` generates for `spec`, rebuilt here
/// from the seed so the benchmark can check it served exactly these
/// requests.
pub fn expected_trace(spec: &ServeSpec) -> Vec<Request> {
    let keys = ServiceStore::new(spec.scale, spec.shards, spec.batch).keys();
    generate_trace(&TraceParams {
        arrival: spec.arrival,
        rate_milli: spec.rate_milli,
        zipf_milli: spec.zipf_milli,
        requests: spec.requests,
        keys,
        seed: spec.seed,
    })
}

/// Runs one serving spec and checks it against its expected trace.
pub fn serve_checked(rung: &Rung, tr: &mut Tracer, req: u64) -> Result<ServeOutput, String> {
    let (out, detail) = tr
        .span("harness.serve", req, |_| run_service_detailed(&rung.spec))
        .map_err(|e| e.to_string())?;
    if let Some(e) = &out.verify_error {
        return Err(e.clone());
    }
    if detail.trace != rung.trace {
        return Err("served a different arrival trace than the seed gives".into());
    }
    if out.completed + out.rejected != rung.trace.len() as u64 {
        return Err(format!(
            "{} completed + {} rejected != {} requests",
            out.completed,
            out.rejected,
            rung.trace.len()
        ));
    }
    Ok(out)
}

pub struct Serve {
    rungs: Vec<Rung>,
}

/// Offered rates in requests per kilocycle.
fn rates(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![8, 16, 24, 32]
    } else {
        (8..=128).step_by(8).collect()
    }
}

pub fn setup(smoke: bool, seed: u64) -> Serve {
    let rungs = rates(smoke)
        .into_iter()
        .map(|rate| {
            let spec = ServeSpec {
                model: ServeModel::Sbrp,
                arrival: ArrivalKind::Poisson,
                rate_milli: rate * 1000,
                zipf_milli: 990,
                requests: if smoke { 1024 } else { 65_536 },
                seed,
                small_gpu: smoke,
                ..ServeSpec::default()
            };
            Rung {
                trace: expected_trace(&spec),
                spec,
            }
        })
        .collect();
    Serve { rungs }
}

impl Serve {
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut completed = 0u64;
        let mut max_rate = 0u64;
        let mut below_limit = true;
        for (i, rung) in self.rungs.iter().enumerate() {
            pass.attempted += 1;
            let rate = rung.spec.rate_milli / 1000;
            match tr.span("serve.rung", i as u64, |tr| {
                serve_checked(rung, tr, i as u64)
            }) {
                Ok(out) => {
                    completed += out.completed;
                    pass.add("harness.serve.requests", rung.trace.len() as f64);
                    pass.add("harness.serve.batches", out.batches as f64);
                    pass.add("harness.serve.rejected", out.rejected as f64);
                    pass.add("harness.serve.duration_cycles", out.duration as f64);
                    if rate == HEADLINE_RATE {
                        pass.add("harness.serve.p50_cycles", out.hist.p50 as f64);
                        pass.add("harness.serve.p999_cycles", out.hist.p999 as f64);
                    }
                    below_limit &= out.rejected == 0 && out.hist.p999 <= P999_LIMIT;
                }
                Err(e) => {
                    below_limit = false;
                    pass.failures.push(Failure::new(rung.spec.cell_name(), e));
                }
            }
            if below_limit {
                max_rate = rate;
            }
        }
        let batches = pass
            .counts
            .get("harness.serve.batches")
            .copied()
            .unwrap_or(0.0);
        pass.add(
            "harness.serve.mean_batch",
            if batches > 0.0 {
                completed as f64 / batches
            } else {
                0.0
            },
        );
        pass.add("harness.serve.max_rate_rpkc", max_rate as f64);
        pass
    }
}
