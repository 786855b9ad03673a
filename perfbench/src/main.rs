//! The repository benchmark: wall-clock training epochs and serving latency
//! of the dmbs pipeline on three workloads, with a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-local|train-1p5d-socket|serve-zipf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds the same products-like R-MAT graph (scale 14,
//! f = 100, 16 classes) and GraphSAGE model (fanout [15, 10, 5], hidden 128)
//! from `--seed`.  With `--trace 0` the run measures the end-to-end metrics
//! untraced; with `--trace 1` it measures the per-layer metrics from spans
//! the benchmark records around its library calls.  Either way it checks the
//! outputs, and its last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `README.md` next to this crate defines every metric.

mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::sync::Arc;

use dmbs_comm::{Communicator, WorkerRegistry};
use dmbs_graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs_sampling::{GraphSageSampler, MinibatchSample};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Boxed error of a benchmark run.
pub(crate) type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// log2 of the vertex count of the benchmark graph.
pub(crate) const SCALE: u32 = 14;
/// GraphSAGE fanout per layer, outermost first.
pub(crate) const FANOUTS: [usize; 3] = [15, 10, 5];
/// Hidden width of every SAGE layer.
pub(crate) const HIDDEN: usize = 128;
/// Input sets an untraced run rotates through.  Epoch time depends on the
/// data (the dense kernels skip zero operands, so activation sparsity
/// matters), so one run averages over several graphs and model inits
/// derived from its seed instead of timing a single one.
pub(crate) const INPUT_SETS: u64 = 4;

/// Relative directory the socket transport's rendezvous directories go in,
/// so a run writes only inside its working directory.
const TMP_DIR: &str = ".bench_tmp";
/// Relative directory traced runs write their Chrome trace files to.
const TRACE_DIR: &str = ".bench_trace";

/// Registry name of the no-op rank worker that times process launch.
pub(crate) const NOOP_WORKER: &str = "perfbench.noop";

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("final_loss", "nat"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics, printed by every `--trace 1` run (zero where a layer
/// is not on the workload's path).
const PER_LAYER: &[(&str, &str)] = &[
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("sampling.sample_epoch_s", "s"),
    ("sampling.stream_wait_s", "s"),
    ("sampling.micro_bulk_s", "s"),
    ("sampling.edges", "count"),
    ("sampling.input_rows", "count"),
    ("features.gather_s", "s"),
    ("features.rows", "count"),
    ("model.forward_s", "s"),
    ("model.loss_s", "s"),
    ("model.backward_s", "s"),
    ("model.optimizer_s", "s"),
    ("model.gemm_flops", "flop"),
    ("model.spmm_nnz", "count"),
    ("model.gflops", "GFLOP/s"),
    ("comm.words", "count"),
    ("comm.messages", "count"),
    ("comm.bytes_on_wire", "bytes"),
    ("comm.modeled_s", "s"),
    ("comm.launch_s", "s"),
    ("comm.socket_overhead_s", "s"),
    ("session.train_socket_s", "s"),
    ("session.train_sim_s", "s"),
    ("rank.sampling_s", "s"),
    ("rank.fetch_s", "s"),
    ("rank.propagation_s", "s"),
    ("serve.serve_s", "s"),
    ("serve.open_loop_s", "s"),
    ("serve.coalescing_factor", "ratio"),
    ("serve.hot_hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// Workload name.
    pub(crate) workload: String,
    /// Seed every input is generated from.
    pub(crate) seed: u64,
    /// Seconds the run measures for.
    pub(crate) seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub(crate) trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Failed correctness checks of one run; any failure makes it incorrect.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a check; `what` describes the expectation when it fails.
    pub(crate) fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.failures.push(what);
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Correctness checks.
    pub(crate) checks: Checks,
    /// Operations attempted (training steps or serve requests).
    pub(crate) attempted: u64,
    /// Operations that failed (errors, shed requests).
    pub(crate) failed: u64,
    /// Metric values by name.
    pub(crate) metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Seed of input set `set` of the run seeded `seed`: distinct for every
/// `(seed, set)` pair.
pub(crate) fn input_seed(seed: u64, set: u64) -> u64 {
    seed.wrapping_mul(INPUT_SETS).wrapping_add(set)
}

/// Builds the benchmark graph from `seed`.
pub(crate) fn dataset(seed: u64) -> Res<Arc<Dataset>> {
    let config = DatasetConfig::products_like(SCALE);
    Ok(Arc::new(build_dataset(&config, &mut StdRng::seed_from_u64(seed))?))
}

/// The benchmark's GraphSAGE sampler.
pub(crate) fn sampler() -> GraphSageSampler {
    GraphSageSampler::new(FANOUTS.to_vec()).with_self_loops()
}

/// Exact propagation work of a set of sampled minibatches through the
/// model: `(gemm_flops, spmm_nnz)`.  Counts follow the kernels as
/// implemented: per SAGE layer with `r` rows, input width `d` and `e`
/// sampled edges, the forward pass runs two `r×d · d×h` GEMMs and one SpMM
/// over `e` nonzeros; the backward pass runs four GEMMs of the same volume
/// and one transposed SpMM.  The classifier adds one `b×h · h×c` GEMM
/// forward and two backward.  Without `backward` only the forward pass is
/// counted.  A flop is one multiply or one add.
pub(crate) fn propagation_work(
    samples: &[MinibatchSample],
    feature_dim: usize,
    classes: usize,
    backward: bool,
) -> (f64, f64) {
    let (gemms_per_layer, spmms, classifier_gemms) = if backward { (6, 2, 3) } else { (2, 1, 1) };
    let (mut flops, mut nnz) = (0.0, 0.0);
    for sample in samples {
        for (l, layer) in sample.layers.iter().enumerate() {
            let d = if l == 0 { feature_dim } else { HIDDEN } as f64;
            let r = layer.rows.len() as f64;
            flops += gemms_per_layer as f64 * 2.0 * r * d * HIDDEN as f64;
            nnz += spmms as f64 * layer.adjacency.nnz() as f64;
        }
        let b = sample.batch.len() as f64;
        flops += classifier_gemms as f64 * 2.0 * b * HIDDEN as f64 * classes as f64;
    }
    (flops, nnz)
}

/// Sets the span-derived per-layer metrics of a traced run: every span
/// name's self time as `<name>_s`, the root's self time as
/// `unattributed_s` and its duration as `traced_wall_s`.
pub(crate) fn set_span_metrics(out: &mut Outcome, rec: &trace::Recorder, root: usize) {
    let self_times = rec.self_times();
    let wall = rec.duration(root);
    let sum: f64 = self_times.values().sum();
    out.checks.expect((sum - wall).abs() <= 1e-9 * wall.max(1.0), || {
        format!("span self times sum to {sum} s, not the traced wall {wall} s")
    });
    for (name, seconds) in self_times {
        if name == "run" {
            out.set("unattributed_s", seconds);
        } else {
            let metric = PER_LAYER
                .iter()
                .map(|(m, _)| *m)
                .find(|m| m.strip_suffix("_s") == Some(name))
                .unwrap_or_else(|| panic!("span {name} has no per-layer metric"));
            out.set(metric, seconds);
        }
    }
    out.set("traced_wall_s", wall);
}

/// Writes a traced run's spans under [`TRACE_DIR`].
pub(crate) fn write_trace(rec: &trace::Recorder, args: &Args) {
    let path =
        std::path::Path::new(TRACE_DIR).join(format!("{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = rec.write_chrome(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn noop_worker(_comm: &mut Communicator, _job: &[u8]) -> Result<Vec<u8>, String> {
    Ok(Vec::new())
}

/// Every rank worker this binary can be re-executed as.
pub(crate) fn workers() -> WorkerRegistry {
    dmbs_gnn::worker::registry().with(NOOP_WORKER, noop_worker)
}

fn print_result(outcome: &Outcome, trace: bool) -> bool {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.checks.failures.is_empty();
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("metric {name} is not finite");
            correct = false;
            0.0
        };
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    correct
}

fn main() {
    dmbs_comm::run_if_worker(&workers());
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <train-local|train-1p5d-socket|serve-zipf> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Rank processes rendezvous in a directory under the temp dir; keep it
    // inside the working directory (the path stays short for the socket
    // address limit).
    std::env::set_var("TMPDIR", TMP_DIR);
    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        eprintln!("cannot create {TMP_DIR}: {e}");
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "train-local" => train::run_local(&args),
        "train-1p5d-socket" => train::run_socket(&args),
        "serve-zipf" => serve::run(&args),
        other => Err(format!("unknown workload {other}").into()),
    };
    let _ = std::fs::remove_dir(TMP_DIR);
    match result {
        Ok(outcome) => {
            if !print_result(&outcome, args.trace) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric tables list exactly the metrics `BENCHMARK.json` declares,
    /// in its order and with its units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(&str, &str)> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let name = entry.split('"').next()?;
                let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let tables: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(declared, tables);
    }
}
