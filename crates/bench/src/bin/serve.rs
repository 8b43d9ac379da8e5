//! `serve` — open-loop request serving against the sharded persistent
//! gpKVS: sweep offered rate × persistency model, report the
//! throughput–latency table (p50/p95/p99/p999 in simulated cycles), and
//! write `outputs/serve.txt` plus the latency-histogram JSON artifact
//! `outputs/serve_hist.json`.
//!
//! Usage: `serve [--smoke] [--arrival poisson|bursty] [--rate LIST]
//! [--zipf THETA] [--batch N] [--linger CYCLES] [--queue-bound N]
//! [--model LIST] [--requests N] [--crash-at CYCLE] [--seed N]
//! [--out-dir DIR]` plus the standard sweep flags of `sbrp_bench`.
//!
//! * `--rate` — comma list of offered rates in requests per kilocycle
//!   (decimals allowed: `--rate 0.5,2,8`).
//! * `--model` — comma list from `sbrp,epoch,gpm,eadr`.
//! * `--smoke` — the CI configuration: small GPU, reduced trace, rates
//!   bracketing the saturation knee; seconds instead of minutes.

use sbrp_bench::{parse_env, Cli, Flags, UsageError, Value};
use sbrp_harness::serve::{hist_json, serve_table, ServeCell, ServeModel, ServeSpec};
use sbrp_harness::sweep::{run_cells_expect, write_atomic};
use sbrp_workloads::service::ArrivalKind;
use std::path::Path;

#[derive(Default)]
struct Args {
    cli: Cli,
    smoke: bool,
    arrival: Option<ArrivalKind>,
    rates_milli: Option<Vec<u64>>,
    models: Option<Vec<ServeModel>>,
    zipf_milli: Option<u64>,
    batch: Option<u32>,
    linger: Option<u64>,
    queue_bound: Option<u64>,
    requests: Option<u64>,
    crash_at: Option<u64>,
    seed: Option<u64>,
    out_dir: Option<String>,
}

/// A non-negative decimal in thousandths.
fn milli(v: &str) -> Option<u64> {
    let f: f64 = v.parse().ok()?;
    (f.is_finite() && f >= 0.0).then(|| (f * 1000.0).round() as u64)
}

impl Flags for Args {
    fn usage() -> String {
        format!(
            "[--smoke] [--arrival poisson|bursty] [--rate LIST] [--zipf THETA] [--batch N] \
             [--linger CYCLES] [--queue-bound N] [--model sbrp,epoch,gpm,eadr] [--requests N] \
             [--crash-at CYCLE] [--seed N] [--out-dir DIR] {}",
            Cli::usage()
        )
    }

    fn flag(&mut self, flag: &str, value: Value<'_>) -> Result<bool, UsageError> {
        match flag {
            "--smoke" => self.smoke = true,
            "--arrival" => {
                self.arrival = Some(value.parse_with(|s| match s {
                    "poisson" => Some(ArrivalKind::Poisson),
                    "bursty" => Some(ArrivalKind::Bursty),
                    _ => None,
                })?);
            }
            "--rate" => {
                self.rates_milli = Some(value.parse_with(|list| {
                    list.split(',')
                        .map(|r| milli(r).filter(|&r| r > 0))
                        .collect()
                })?);
            }
            "--model" => {
                self.models = Some(
                    value.parse_with(|list| list.split(',').map(ServeModel::parse).collect())?,
                );
            }
            "--zipf" => self.zipf_milli = Some(value.parse_with(milli)?),
            "--batch" => self.batch = Some(value.positive()?),
            "--linger" => self.linger = Some(value.value(|_| true)?),
            "--queue-bound" => self.queue_bound = Some(value.positive()?),
            "--requests" => self.requests = Some(value.positive()?),
            "--crash-at" => self.crash_at = Some(value.value(|_| true)?),
            "--seed" => self.seed = Some(value.value(|_| true)?),
            "--out-dir" => self.out_dir = Some(value.string()?),
            _ => return self.cli.flag(flag, value),
        }
        Ok(true)
    }
}

fn main() {
    let args: Args = parse_env();
    // The smoke preset is the CI configuration: small GPU, short trace,
    // offered rates bracketing the measured saturation knee so the
    // table shows both the latency floor and the overload regime.
    let small = args.cli.small || args.smoke;
    let scale = args
        .cli
        .scale
        .unwrap_or(if args.smoke { 512 } else { 2048 });
    let requests = args.requests.unwrap_or(if args.smoke { 384 } else { 2048 });
    let batch = args.batch.unwrap_or(if args.smoke { 32 } else { 64 });
    let models = args.models.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![ServeModel::Sbrp, ServeModel::Gpm, ServeModel::Epoch]
        } else {
            ServeModel::ALL.to_vec()
        }
    });
    let rates = args.rates_milli.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![2_000, 8_000, 32_000, 128_000]
        } else {
            vec![2_000, 8_000, 16_000, 32_000, 64_000, 128_000]
        }
    });

    let cells: Vec<ServeCell> = models
        .iter()
        .flat_map(|&model| {
            rates.iter().map(move |&rate_milli| ServeCell {
                spec: ServeSpec {
                    model,
                    arrival: args.arrival.unwrap_or(ArrivalKind::Poisson),
                    rate_milli,
                    zipf_milli: args.zipf_milli.unwrap_or(990),
                    requests,
                    scale,
                    batch,
                    linger: args.linger.unwrap_or(if args.smoke { 1000 } else { 2000 }),
                    queue_bound: args
                        .queue_bound
                        .unwrap_or(if args.smoke { 256 } else { 512 }),
                    seed: args.seed.unwrap_or(42),
                    small_gpu: small,
                    crash_at: args.crash_at,
                    ..ServeSpec::default()
                },
            })
        })
        .collect();

    let (outs, summary) = run_cells_expect(&args.cli.sweep_opts(), &cells);
    let table = serve_table(&cells, &outs);
    args.cli.emit(&table);

    let out_dir = Path::new(args.out_dir.as_deref().unwrap_or("outputs"));
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", out_dir.display()));
    let txt_path = out_dir.join("serve.txt");
    write_atomic(&txt_path, &table.to_text())
        .unwrap_or_else(|e| panic!("writing {}: {e}", txt_path.display()));
    let hist_path = out_dir.join("serve_hist.json");
    write_atomic(&hist_path, &hist_json(&cells, &outs))
        .unwrap_or_else(|e| panic!("writing {}: {e}", hist_path.display()));
    eprintln!(
        "serve: wrote {} and {}",
        txt_path.display(),
        hist_path.display()
    );
    eprintln!("{}", summary.summary_line());
}
