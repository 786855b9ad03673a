//! The two training workloads.
//!
//! * `train-local` — [`LocalBackend`], batch 256, bulk k = 4, trained with
//!   [`TrainingSession::train`]: the model layer does almost all the work
//!   and no communication happens.
//! * `train-1p5d-socket` — [`Partitioned1p5dBackend`] with p = 2, c = 1 over
//!   the Unix-socket transport (two rank processes): 1.5D sampling and real
//!   socket traffic sit on the blocking path, and the distributed rank body
//!   runs instead of the streaming loop.
//!
//! The untraced run times whole `train()` calls of one epoch each.  The
//! traced run records spans around the public calls that make up an epoch
//! (see `README.md`).

use std::sync::Arc;
use std::time::Instant;

use dmbs_comm::{Runtime, SocketLaunch, TransportSelect};
use dmbs_gnn::loss::cross_entropy;
use dmbs_gnn::metrics::RunningMean;
use dmbs_gnn::optim::{Optimizer, Sgd};
use dmbs_gnn::{SageModel, TrainingReport, TrainingSession};
use dmbs_graph::datasets::Dataset;
use dmbs_sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, LocalBackend, MinibatchSample,
    Partitioned1p5dBackend, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;
use crate::{stats, Args, Checks, Outcome, Res, HIDDEN};

/// Minibatch size of both training workloads.
const BATCH: usize = 256;
/// Bulk group size k of both training workloads.
const BULK: usize = 4;
/// SGD learning rate (the session default, stated for the manual loop).
const LEARNING_RATE: f64 = 0.01;
/// Ranks of the socket workload (a 2 × 1 grid).
const RANKS: usize = 2;

type Session<B> = TrainingSession<GraphSageSampler, B>;

fn session<B: SamplingBackend>(
    dataset: &Arc<Dataset>,
    backend: B,
    seed: u64,
    transport: TransportSelect,
) -> Res<Session<B>> {
    Ok(TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(crate::sampler())
        .backend(backend)
        .hidden_dim(HIDDEN)
        .learning_rate(LEARNING_RATE)
        .epochs(1)
        .seed(seed)
        .transport(transport)
        .without_evaluation()
        .build()?)
}

fn local_session(dataset: &Arc<Dataset>, seed: u64) -> Res<Session<LocalBackend>> {
    let backend = LocalBackend::new(BulkSamplerConfig::new(BATCH, BULK))?;
    session(dataset, backend, seed, TransportSelect::Simulator)
}

fn socket_launch() -> SocketLaunch {
    SocketLaunch::default().timeout_ms(120_000)
}

fn partitioned_session(
    dataset: &Arc<Dataset>,
    seed: u64,
    transport: TransportSelect,
) -> Res<Session<Partitioned1p5dBackend>> {
    let dist = DistConfig::new(RANKS, 1, BulkSamplerConfig::new(BATCH, BULK));
    session(dataset, Partitioned1p5dBackend::new(dist)?, seed, transport)
}

/// Training steps (minibatches) of one epoch.
fn steps_per_epoch(dataset: &Dataset) -> u64 {
    dataset.train_set.len().div_ceil(BATCH) as u64
}

/// Everything of a one-epoch report that must repeat bit for bit under the
/// same seed: the loss bits and the exact communication counters.
fn fingerprint(report: &TrainingReport) -> Vec<u64> {
    report
        .epochs
        .iter()
        .flat_map(|e| {
            [
                e.mean_loss.to_bits(),
                e.comm.words_sent as u64,
                e.comm.messages as u64,
                e.comm.bytes_on_wire as u64,
            ]
        })
        .collect()
}

fn final_loss(report: &TrainingReport) -> f64 {
    report.epochs.last().map_or(f64::NAN, |e| e.mean_loss)
}

/// The untraced measurement shared by both training workloads.  Each call
/// sets up the next of [`crate::INPUT_SETS`] input sets derived from the run
/// seed and times one one-epoch `train()` on it, while the next call is
/// expected to end within `args.seconds`.  At least one set is trained
/// twice, so the same-seed repeat check always runs.  Returns the input
/// seed and report of the last call that succeeded.
fn measure_epochs<B>(
    args: &Args,
    out: &mut Outcome,
    mut setup: impl FnMut(u64) -> Res<Session<B>>,
) -> Res<(u64, TrainingReport)>
where
    B: SamplingBackend + Send + Sync + 'static,
{
    let min_calls = crate::INPUT_SETS + 1;
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    // Loss and fingerprint of each input set's first call.
    let mut seen: Vec<(u64, f64, Vec<u64>)> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut call = 0;
    while call < min_calls
        || start.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= args.seconds
    {
        let input = crate::input_seed(args.seed, call % crate::INPUT_SETS);
        call += 1;
        let set_up = Instant::now();
        let session = setup(input)?;
        setups.push(set_up.elapsed().as_secs_f64());
        let steps = steps_per_epoch(session.dataset());
        out.attempted += steps;
        let timed = Instant::now();
        let report = match session.train() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("train() failed: {e}");
                out.failed += steps;
                if out.failed >= 2 * steps {
                    return Err(e.into());
                }
                continue;
            }
        };
        walls.push(timed.elapsed().as_secs_f64());
        eprintln!("train() on input {input}: {:.3} s", walls[walls.len() - 1]);
        let print = fingerprint(&report);
        match seen.iter().find(|(i, _, _)| *i == input) {
            Some((_, _, first)) => out.checks.expect(*first == print, || {
                format!("same-seed train() calls on input {input} disagree on loss bits or comm counters")
            }),
            None => seen.push((input, final_loss(&report), print)),
        }
        last = Some((input, report));
    }
    let losses: Vec<f64> = seen.iter().map(|(_, loss, _)| *loss).collect();
    out.checks.expect(losses.iter().all(|l| l.is_finite() && *l > 0.0), || {
        format!("final losses {losses:?} are not all positive numbers")
    });
    out.set("setup_s", stats::median(&setups));
    out.set("epoch_s", walls.iter().sum::<f64>() / walls.len() as f64);
    out.set("p50_ms", stats::median(&walls) * 1e3);
    out.set("final_loss", losses.iter().sum::<f64>() / losses.len() as f64);
    last.ok_or_else(|| "no train() call succeeded".into())
}

/// Exact per-epoch counters of an eagerly sampled epoch: `(edges, input
/// rows)`.
fn sample_counts(samples: &[MinibatchSample]) -> (usize, usize) {
    let edges = samples.iter().map(MinibatchSample::total_edges).sum();
    let rows = samples.iter().map(|s| s.input_vertices().len()).sum();
    (edges, rows)
}

/// Sets the exact-count and in-program metrics of an epoch.
fn set_epoch_counters(
    out: &mut Outcome,
    dataset: &Dataset,
    report: &TrainingReport,
    samples: &[MinibatchSample],
) {
    let (edges, rows) = sample_counts(samples);
    let feature_dim = dataset.graph.features().map_or(0, |f| f.cols());
    let (flops, nnz) =
        crate::propagation_work(samples, feature_dim, dataset.graph.num_classes(), true);
    out.set("sampling.edges", edges as f64);
    out.set("sampling.input_rows", rows as f64);
    out.set("features.rows", rows as f64);
    out.set("model.gemm_flops", flops);
    out.set("model.spmm_nnz", nnz);
    let epoch = &report.epochs[0];
    out.set("comm.words", epoch.comm.words_sent as f64);
    out.set("comm.messages", epoch.comm.messages as f64);
    out.set("comm.bytes_on_wire", epoch.comm.bytes_on_wire as f64);
    out.set("comm.modeled_s", epoch.comm.modeled_time);
    out.set("rank.sampling_s", epoch.sampling_time());
    out.set("rank.fetch_s", epoch.feature_fetch_time());
    out.set("rank.propagation_s", epoch.propagation_time());
}

/// The determinism self-check: same-seed eager sampling repeats its exact
/// counters, and a session with another seed changes them and the loss.
fn check_seed_sensitivity<B>(
    checks: &mut Checks,
    session: &Session<B>,
    other: &Session<B>,
    samples: &[MinibatchSample],
    report: &TrainingReport,
) -> Res<()>
where
    B: SamplingBackend + Send + Sync + 'static,
{
    let again = session.sample_epoch_eager(0)?.minibatches;
    checks.expect(sample_counts(&again) == sample_counts(samples), || {
        "same-seed eager sampling changed the exact counters".into()
    });
    let moved = other.sample_epoch_eager(0)?.minibatches;
    checks.expect(sample_counts(&moved) != sample_counts(samples), || {
        "another seed left the sampling counters unchanged".into()
    });
    let other_loss = final_loss(&other.train()?);
    checks.expect(other_loss.to_bits() != final_loss(report).to_bits(), || {
        "another seed left the loss bits unchanged".into()
    });
    Ok(())
}

/// `train-local`.
pub(crate) fn run_local(args: &Args) -> Res<Outcome> {
    let mut out = Outcome::default();
    if !args.trace {
        measure_epochs(args, &mut out, |input| local_session(&crate::dataset(input)?, input))?;
        out.set("peak_rss_mb", stats::peak_rss_mb());
        return Ok(out);
    }

    let seed = crate::input_seed(args.seed, 0);
    let dataset = crate::dataset(seed)?;
    let session = local_session(&dataset, seed)?;
    let features = dataset.graph.features().ok_or("dataset has no features")?;
    let labels = dataset.graph.labels().ok_or("dataset has no labels")?;
    let steps = steps_per_epoch(&dataset);

    // Untraced reference epoch.
    let start = Instant::now();
    let report = session.train()?;
    let untraced = start.elapsed().as_secs_f64();

    // Traced epoch: the streaming loop rebuilt from its public parts.
    let mut rec = Recorder::default();
    let root = rec.open("run");
    let loop_start = Instant::now();
    let mut model = SageModel::new(
        features.cols(),
        HIDDEN,
        dataset.graph.num_classes(),
        crate::FANOUTS.len(),
        &mut StdRng::seed_from_u64(seed),
    )?
    .with_parallelism(session.backend().parallelism());
    let mut optimizer = Sgd::new(LEARNING_RATE);
    let mut loss = RunningMean::new();
    let mut streamed = Vec::new();
    let mut stream = rec.span("sampling.stream_wait", || session.stream(0))?;
    while let Some(minibatch) = rec.span("sampling.stream_wait", || stream.next()) {
        let sample = minibatch?.sample;
        let input =
            rec.span("features.gather", || features.gather_rows(sample.input_vertices()))?;
        let batch_labels: Vec<usize> = sample.batch.iter().map(|&v| labels[v]).collect();
        let (logits, cache) = rec.span("model.forward", || model.forward(&sample, &input))?;
        let (step_loss, d_logits) =
            rec.span("model.loss", || cross_entropy(&logits, &batch_labels))?;
        let grads = rec.span("model.backward", || model.backward(&cache, &d_logits))?;
        rec.span("model.optimizer", || optimizer.step(model.parameters_mut(), &grads))?;
        loss.push(step_loss);
        streamed.push(sample);
    }
    drop(stream);
    let traced = loop_start.elapsed().as_secs_f64();
    let samples = rec.span("sampling.sample_epoch", || session.sample_epoch_eager(0))?.minibatches;
    rec.close(root);
    crate::write_trace(&rec, args);

    out.attempted = steps;
    out.checks.expect(loss.mean().to_bits() == report.epochs[0].mean_loss.to_bits(), || {
        format!(
            "traced loop loss {} differs from train() loss {}",
            loss.mean(),
            report.epochs[0].mean_loss
        )
    });
    out.checks.expect(streamed == samples, || "stream and eager sampling disagree".into());
    let other = local_session(&dataset, seed.wrapping_add(1))?;
    check_seed_sensitivity(&mut out.checks, &session, &other, &samples, &report)?;

    crate::set_span_metrics(&mut out, &rec, root);
    set_epoch_counters(&mut out, &dataset, &report, &samples);
    let model_s = out.metrics["model.forward_s"] + out.metrics["model.backward_s"];
    out.set("model.gflops", out.metrics["model.gemm_flops"] / model_s / 1e9);
    out.set("trace_overhead_frac", traced / untraced - 1.0);
    out.set("failed_frac", out.failed as f64 / out.attempted as f64);
    Ok(out)
}

/// `train-1p5d-socket`.
pub(crate) fn run_socket(args: &Args) -> Res<Outcome> {
    let socket = TransportSelect::UnixSocket(socket_launch());
    let mut out = Outcome::default();
    if !args.trace {
        let (input, report) = measure_epochs(args, &mut out, |input| {
            partitioned_session(&crate::dataset(input)?, input, socket.clone())
        })?;
        out.set("peak_rss_mb", stats::peak_rss_mb());
        let dataset = crate::dataset(input)?;
        let sim = partitioned_session(&dataset, input, TransportSelect::Simulator)?.train()?;
        out.checks.expect(fingerprint(&sim) == fingerprint(&report), || {
            "socket transport diverged from the simulator (loss bits or words/messages)".into()
        });
        return Ok(out);
    }

    let seed = crate::input_seed(args.seed, 0);
    let dataset = crate::dataset(seed)?;
    let session = partitioned_session(&dataset, seed, socket.clone())?;
    let sim_session = partitioned_session(&dataset, seed, TransportSelect::Simulator)?;
    let steps = steps_per_epoch(&dataset);

    let start = Instant::now();
    let untraced_report = session.train()?;
    let untraced = start.elapsed().as_secs_f64();

    let mut rec = Recorder::default();
    let root = rec.open("run");
    let launch = Runtime::new(RANKS)?.with_transport(socket);
    rec.span("comm.launch", || launch.run_worker(&crate::workers(), crate::NOOP_WORKER, &[]))?;
    let id = rec.open("session.train_socket");
    let report = session.train()?;
    rec.close(id);
    let traced = rec.duration(id);
    let id = rec.open("session.train_sim");
    let sim = sim_session.train()?;
    rec.close(id);
    let sim_wall = rec.duration(id);
    let samples = rec.span("sampling.sample_epoch", || session.sample_epoch_eager(0))?.minibatches;
    let features = dataset.graph.features().ok_or("dataset has no features")?;
    for sample in &samples {
        rec.span("features.gather", || features.gather_rows(sample.input_vertices()))?;
    }
    rec.close(root);
    crate::write_trace(&rec, args);

    out.attempted = steps;
    out.checks.expect(fingerprint(&report) == fingerprint(&untraced_report), || {
        "same-seed socket train() calls disagree".into()
    });
    out.checks.expect(fingerprint(&sim) == fingerprint(&report), || {
        "socket transport diverged from the simulator (loss bits or words/messages)".into()
    });
    let other = partitioned_session(&dataset, seed.wrapping_add(1), TransportSelect::Simulator)?;
    check_seed_sensitivity(&mut out.checks, &sim_session, &other, &samples, &report)?;

    crate::set_span_metrics(&mut out, &rec, root);
    set_epoch_counters(&mut out, &dataset, &report, &samples);
    out.set("comm.socket_overhead_s", traced - sim_wall);
    out.set("trace_overhead_frac", traced / untraced - 1.0);
    out.set("failed_frac", out.failed as f64 / out.attempted as f64);
    Ok(out)
}
