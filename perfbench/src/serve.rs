//! The `serve-zipf` workload: a [`ServingSession`] over a random-init
//! [`ModelSnapshot`] of the benchmark model, default [`ServingConfig`]
//! (micro-bulks of at most 16, hot tier of 256 rows).
//!
//! * **Open loop.**  Requests for Zipf(1.1) vertices fall due at a fixed
//!   [`RATE`] requests/s in wall-clock time: a generator thread sleeps until
//!   each request is due and hands it to the server loop, which admits,
//!   coalesces and serves it.  Latency runs from the request's due time to
//!   its answer, so a stall also charges the requests queued behind it.
//! * **Inference epoch.**  A closed loop answers one request per training
//!   vertex in micro-bulks of the configured size, back to back: its wall
//!   time is the serving counterpart of a training epoch, and its rate is
//!   the session's capacity.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmbs_gnn::loss::cross_entropy;
use dmbs_gnn::{
    ModelSnapshot, RequestTrace, SageModel, ServeRequest, ServeResponse, ServingConfig,
    ServingSession,
};
use dmbs_graph::datasets::Dataset;
use dmbs_matrix::DenseMatrix;
use dmbs_sampling::{
    request_stream_seed, sample_micro_bulk, BulkSamplerConfig, GraphSageSampler, MicroRequest,
    MinibatchSample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;
use crate::{stats, Args, Outcome, Res, HIDDEN};

/// Open-loop arrival rate, requests per second.  A request takes about
/// 6 ms to serve on a 2-core host, so at this rate one seldom waits for
/// another and the latency tail tracks the service time.  Nearer saturation
/// (80 or 120 requests/s, or Poisson arrivals at 60) queueing turned host
/// noise into a p99 that swung by 2× from run to run.
const RATE: f64 = 40.0;
/// Share of `--seconds` the open loop runs for: more than 1,000 requests at
/// 30 s, so p99 has at least ten samples beyond it.
const OPEN_SHARE: f64 = 0.85;
/// Zipf exponent of the requested vertices.
const ZIPF: f64 = 1.1;
/// Closed-loop requests served before anything is timed, so the hot tier is
/// warm and lazy set-up has finished.
const WARMUP: usize = 64;
/// Inference-epoch requests re-served alone to check coalescing.
const ALONE_SAMPLE: usize = 32;
/// Request-id bases keeping the passes' sampling streams apart.
const WARMUP_IDS: u64 = 1 << 40;
const EPOCH_IDS: u64 = 1 << 32;

type Serving = ServingSession<GraphSageSampler>;

fn snapshot(dataset: &Dataset, seed: u64) -> Res<ModelSnapshot> {
    let features = dataset.graph.features().ok_or("dataset has no features")?;
    let model = SageModel::new(
        features.cols(),
        HIDDEN,
        dataset.graph.num_classes(),
        crate::FANOUTS.len(),
        &mut StdRng::seed_from_u64(seed),
    )?;
    Ok(ModelSnapshot::new(model, dataset.num_vertices())?)
}

fn config(seed: u64) -> ServingConfig {
    ServingConfig { seed, ..ServingConfig::default() }
}

fn open_session(dataset: &Arc<Dataset>, snapshot: ModelSnapshot, seed: u64) -> Res<Serving> {
    Ok(ServingSession::new(Arc::clone(dataset), crate::sampler(), snapshot, config(seed))?)
}

/// Serves `vertices` closed-loop in micro-bulks of the configured size,
/// request ids from `id_base`; returns the responses and the wall seconds.
fn closed_loop(
    serving: &mut Serving,
    vertices: &[usize],
    id_base: u64,
) -> Res<(Vec<ServeResponse>, f64)> {
    let requests: Vec<ServeRequest> = vertices
        .iter()
        .enumerate()
        .map(|(i, &vertex)| ServeRequest { id: id_base + i as u64, vertex })
        .collect();
    let start = Instant::now();
    let mut responses = Vec::with_capacity(requests.len());
    for bulk in requests.chunks(ServingConfig::default().max_micro_bulk) {
        responses.extend(serving.serve(bulk)?);
    }
    Ok((responses, start.elapsed().as_secs_f64()))
}

/// What an open-loop pass observed.
#[derive(Debug, Default)]
struct OpenLoop {
    attempted: u64,
    shed: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    out_of_range: usize,
}

impl OpenLoop {
    /// Admits a due request into the queue, or sheds it at a full queue.
    fn admit(&mut self, serving: &Serving, queue: &mut VecDeque<Arrival>, a: Arrival) {
        self.attempted += 1;
        self.lag_ms.push(a.lag.as_secs_f64() * 1e3);
        if serving.check_admission(queue.len()).is_ok() {
            queue.push_back(a);
        } else {
            self.shed += 1;
        }
    }
}

/// One due request handed from the generator to the server loop.
struct Arrival {
    id: u64,
    vertex: usize,
    due: Instant,
    lag: Duration,
}

/// Runs the open loop over `trace` in wall-clock time.  With a recorder,
/// every `serve` call is a `serve.serve` span.
fn open_loop(
    serving: &mut Serving,
    trace: &RequestTrace,
    classes: usize,
    mut rec: Option<&mut Recorder>,
) -> OpenLoop {
    let config = ServingConfig::default();
    let window = Duration::from_secs_f64(config.coalesce_window);
    let cap = config.max_micro_bulk;
    let arrivals = trace.arrivals.clone();
    let (tx, rx) = mpsc::channel::<Arrival>();
    let t0 = Instant::now();
    let generator = std::thread::spawn(move || {
        for (i, a) in arrivals.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(a.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag = Instant::now().saturating_duration_since(due);
            if tx.send(Arrival { id: i as u64, vertex: a.vertex, due, lag }).is_err() {
                return;
            }
        }
    });

    let mut seen = OpenLoop::default();
    let mut queue: VecDeque<Arrival> = VecDeque::new();
    let mut done = false;
    loop {
        loop {
            match rx.try_recv() {
                Ok(a) => seen.admit(serving, &mut queue, a),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    done = true;
                    break;
                }
            }
        }
        let Some(head) = queue.front() else {
            if done {
                break;
            }
            match rx.recv() {
                Ok(a) => seen.admit(serving, &mut queue, a),
                Err(_) => done = true,
            }
            continue;
        };
        // Coalescing window: a micro-bulk closes a window after its oldest
        // request was due, or as soon as it is full.
        let close = head.due + window;
        let now = Instant::now();
        if queue.len() < cap && now < close && !done {
            match rx.recv_timeout(close - now) {
                Ok(a) => seen.admit(serving, &mut queue, a),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => done = true,
            }
            continue;
        }
        let now = Instant::now();
        let mut batch = Vec::with_capacity(cap);
        while batch.len() < cap {
            let Some(a) = queue.pop_front() else { break };
            if serving.check_timeout((now - a.due).as_secs_f64()).is_ok() {
                batch.push(a);
            } else {
                seen.shed += 1;
            }
        }
        if batch.is_empty() {
            continue;
        }
        let requests: Vec<ServeRequest> =
            batch.iter().map(|a| ServeRequest { id: a.id, vertex: a.vertex }).collect();
        let result = match rec.as_deref_mut() {
            Some(rec) => rec.span("serve.serve", || serving.serve(&requests)),
            None => serving.serve(&requests),
        };
        let answered = Instant::now();
        match result {
            Ok(responses) => {
                seen.latencies_ms
                    .extend(batch.iter().map(|a| (answered - a.due).as_secs_f64() * 1e3));
                seen.out_of_range += out_of_range(&responses, classes);
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                seen.errors += batch.len() as u64;
            }
        }
    }
    generator.join().expect("the request generator does not panic");
    seen
}

/// Mean cross-entropy of `responses` against the vertices' labels.
fn response_loss(dataset: &Dataset, responses: &[ServeResponse]) -> Res<f64> {
    let labels = dataset.graph.labels().ok_or("dataset has no labels")?;
    let classes = dataset.graph.num_classes();
    let flat: Vec<f64> = responses.iter().flat_map(|r| r.logits.iter().copied()).collect();
    let logits = DenseMatrix::from_vec(responses.len(), classes, flat)?;
    let batch_labels: Vec<usize> = responses.iter().map(|r| labels[r.vertex]).collect();
    Ok(cross_entropy(&logits, &batch_labels)?.0)
}

/// Responses whose prediction or logit vector does not fit `classes`.
fn out_of_range(responses: &[ServeResponse], classes: usize) -> usize {
    responses.iter().filter(|r| r.prediction >= classes || r.logits.len() != classes).count()
}

fn same_logits(a: &ServeResponse, b: &ServeResponse) -> bool {
    a.prediction == b.prediction
        && a.logits.len() == b.logits.len()
        && a.logits.iter().zip(&b.logits).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The per-request sampling calls of micro-bulk `requests` exactly as the
/// serving session makes them.
fn micro_bulk(
    dataset: &Dataset,
    requests: &[ServeRequest],
    seed: u64,
) -> Res<Vec<MinibatchSample>> {
    let config = ServingConfig::default();
    let micro: Vec<MicroRequest> = requests
        .iter()
        .map(|r| MicroRequest { vertex: r.vertex, seed: request_stream_seed(seed, r.id) })
        .collect();
    let bulk = BulkSamplerConfig {
        batch_size: 1,
        bulk_size: 1,
        parallelism: config.parallelism,
        workspace_reuse: config.workspace_reuse,
    };
    Ok(sample_micro_bulk(&crate::sampler(), dataset.graph.adjacency(), &micro, &bulk)?.samples)
}

/// One input set of the workload: its graph, the random-init model and a
/// warm serving session over them.
struct Setup {
    dataset: Arc<Dataset>,
    snapshot: ModelSnapshot,
    serving: Serving,
    seed: u64,
}

/// Builds input set `seed` (the timed set-up).
fn set_up(seed: u64) -> Res<Setup> {
    let dataset = crate::dataset(seed)?;
    let snapshot = snapshot(&dataset, seed)?;
    let serving = open_session(&dataset, snapshot.clone(), seed)?;
    Ok(Setup { dataset, snapshot, serving, seed })
}

/// Warms the session (hot tier, kernel workspaces) before anything is timed.
fn warm_up(setup: &mut Setup) -> Res<()> {
    let n = setup.dataset.num_vertices();
    let warm: Vec<usize> = (0..WARMUP).map(|i| (i * 7919) % n).collect();
    closed_loop(&mut setup.serving, &warm, WARMUP_IDS)?;
    Ok(())
}

/// Zipf(1.1) vertices due at a fixed rate: request `i` is due `i / RATE`
/// seconds after the loop starts.
fn fixed_rate_trace(requests: usize, num_vertices: usize, seed: u64) -> RequestTrace {
    let mut trace = RequestTrace::open_loop(requests, RATE, ZIPF, num_vertices, seed);
    for (i, arrival) in trace.arrivals.iter_mut().enumerate() {
        arrival.at = i as f64 / RATE;
    }
    trace
}

/// `serve-zipf`.
pub(crate) fn run(args: &Args) -> Res<Outcome> {
    if args.trace {
        return run_traced(args);
    }
    // Service time depends on the graph, so the run splits its load over
    // [`crate::INPUT_SETS`] input sets.  Each gets an equal share of the open
    // loop and answers its share of the inference epoch, one request per
    // training vertex in all.
    let mut out = Outcome::default();
    let sets = crate::INPUT_SETS as usize;
    let open_seconds = args.seconds * OPEN_SHARE / sets as f64;
    let (mut setups, mut latencies) = (Vec::new(), Vec::new());
    let (mut epoch_wall, mut loss_sum, mut answered) = (0.0, 0.0, 0usize);
    for set in 0..sets {
        let start = Instant::now();
        let mut setup = set_up(crate::input_seed(args.seed, set as u64))?;
        setups.push(start.elapsed().as_secs_f64());
        warm_up(&mut setup)?;
        let classes = setup.dataset.graph.num_classes();
        let n = setup.dataset.num_vertices();
        let requests = (RATE * open_seconds).ceil() as usize;
        let seen = open_loop(
            &mut setup.serving,
            &fixed_rate_trace(requests, n, setup.seed),
            classes,
            None,
        );
        let train = &setup.dataset.train_set;
        let share = train.chunks(train.len().div_ceil(sets)).nth(set).unwrap_or(&[]);
        let (responses, wall) = closed_loop(&mut setup.serving, share, EPOCH_IDS)?;

        out.attempted += seen.attempted + responses.len() as u64;
        out.failed += seen.shed + seen.errors;
        out.checks.expect(seen.out_of_range == 0, || {
            format!("{} open-loop predictions out of range", seen.out_of_range)
        });
        check_alone(&mut out, &setup, &responses, ALONE_SAMPLE / sets)?;
        latencies.extend(seen.latencies_ms);
        epoch_wall += wall;
        loss_sum += response_loss(&setup.dataset, &responses)? * responses.len() as f64;
        answered += responses.len();
    }
    out.checks.expect(!latencies.is_empty(), || "no open-loop request was served".into());
    out.set("setup_s", stats::median(&setups));
    out.set("epoch_s", epoch_wall);
    out.set("final_loss", loss_sum / answered as f64);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("p50_ms", stats::median(&latencies));
    Ok(out)
}

/// The traced run of `serve-zipf`, on the run's first input set.
fn run_traced(args: &Args) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut setup = set_up(crate::input_seed(args.seed, 0))?;
    warm_up(&mut setup)?;
    let Setup { dataset, snapshot, serving, seed } = &mut setup;
    let (dataset, snapshot, seed) = (&*dataset, &*snapshot, *seed);
    let classes = dataset.graph.num_classes();
    let n = dataset.num_vertices();

    // Untraced reference: the inference epoch through `serve`.
    let (responses, untraced) = closed_loop(serving, &dataset.train_set, EPOCH_IDS)?;
    let features = dataset.graph.features().ok_or("dataset has no features")?;

    let mut rec = Recorder::default();
    let root = rec.open("run");
    let requests = (RATE * args.seconds * OPEN_SHARE).ceil() as usize;
    let trace = fixed_rate_trace(requests, n, seed);
    let before = serving.stats();
    let id = rec.open("serve.open_loop");
    let seen = open_loop(serving, &trace, classes, Some(&mut rec));
    rec.close(id);
    let after = serving.stats();

    // Traced replica of the inference epoch from the public request-path
    // calls: micro-bulk sampling, feature gather, forward pass.
    let replica_start = Instant::now();
    let epoch_requests: Vec<ServeRequest> = dataset
        .train_set
        .iter()
        .enumerate()
        .map(|(i, &vertex)| ServeRequest { id: EPOCH_IDS + i as u64, vertex })
        .collect();
    let mut samples = Vec::with_capacity(epoch_requests.len());
    let mut mismatched = 0usize;
    for bulk in epoch_requests.chunks(ServingConfig::default().max_micro_bulk) {
        let bulk_samples = rec.span("sampling.micro_bulk", || micro_bulk(dataset, bulk, seed))?;
        for sample in bulk_samples {
            let input =
                rec.span("features.gather", || features.gather_rows(sample.input_vertices()))?;
            let (logits, _) =
                rec.span("model.forward", || snapshot.model().forward(&sample, &input))?;
            let served = &responses[samples.len()];
            let replica = ServeResponse {
                id: served.id,
                vertex: served.vertex,
                prediction: logits.row_argmax()[0],
                logits: logits.row(0).to_vec(),
            };
            mismatched += usize::from(!same_logits(served, &replica));
            samples.push(sample);
        }
    }
    let traced = replica_start.elapsed().as_secs_f64();
    rec.close(root);
    crate::write_trace(&rec, args);

    out.attempted = seen.attempted + responses.len() as u64;
    out.failed = seen.shed + seen.errors;
    out.checks.expect(mismatched == 0, || {
        format!("{mismatched} replica responses differ from the served ones")
    });
    out.checks.expect(seen.out_of_range == 0, || {
        format!("{} open-loop predictions out of range", seen.out_of_range)
    });
    // Determinism: the same request ids resample the same neighborhoods,
    // another seed changes them.
    let head = &epoch_requests[..ServingConfig::default().max_micro_bulk];
    let edges = |s: &[MinibatchSample]| s.iter().map(MinibatchSample::total_edges).sum::<usize>();
    let first = edges(&samples[..head.len()]);
    out.checks.expect(edges(&micro_bulk(dataset, head, seed)?) == first, || {
        "same-seed micro-bulk sampling changed its edge count".into()
    });
    out.checks.expect(edges(&micro_bulk(dataset, head, seed.wrapping_add(1))?) != first, || {
        "another seed left the micro-bulk edge count unchanged".into()
    });

    crate::set_span_metrics(&mut out, &rec, root);
    let feature_dim = features.cols();
    let rows: usize = samples.iter().map(|s| s.input_vertices().len()).sum();
    let (flops, nnz) = crate::propagation_work(&samples, feature_dim, classes, false);
    out.set("sampling.edges", edges(&samples) as f64);
    out.set("sampling.input_rows", rows as f64);
    out.set("features.rows", rows as f64);
    out.set("model.gemm_flops", flops);
    out.set("model.spmm_nnz", nnz);
    out.set("model.gflops", flops / out.metrics["model.forward_s"] / 1e9);
    let batches = (after.batches - before.batches).max(1);
    out.set(
        "serve.coalescing_factor",
        (after.requests_served - before.requests_served) as f64 / batches as f64,
    );
    let hits = (after.hot_hits - before.hot_hits) as f64;
    let lookups = hits + (after.hot_misses - before.hot_misses) as f64;
    out.set("serve.hot_hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    out.set("serve.shed", seen.shed as f64);
    out.set("serve.generator_lag_ms", stats::percentile(&seen.lag_ms, 99.0));
    out.set("serve.p90_ms", stats::percentile(&seen.latencies_ms, 90.0));
    out.set("serve.p99_ms", stats::percentile(&seen.latencies_ms, 99.0));
    out.set("serve.capacity_rps", responses.len() as f64 / untraced);
    out.set("trace_overhead_frac", traced / untraced - 1.0);
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    Ok(out)
}

/// Re-serves `samples` of the inference epoch's requests one at a time on a
/// fresh session: coalescing must be byte-transparent, so every response
/// equals its coalesced counterpart.  Every prediction must be in range.
fn check_alone(
    out: &mut Outcome,
    setup: &Setup,
    responses: &[ServeResponse],
    samples: usize,
) -> Res<()> {
    let classes = setup.dataset.graph.num_classes();
    let mut alone = open_session(&setup.dataset, setup.snapshot.clone(), setup.seed)?;
    let step = (responses.len() / samples.max(1)).max(1);
    for coalesced in responses.iter().step_by(step) {
        let single = alone.serve(&[ServeRequest { id: coalesced.id, vertex: coalesced.vertex }])?;
        out.checks.expect(same_logits(coalesced, &single[0]), || {
            format!("request {} differs when served alone", coalesced.id)
        });
    }
    let bad = out_of_range(responses, classes);
    out.checks.expect(bad == 0, || format!("{bad} inference predictions out of range"));
    Ok(())
}
