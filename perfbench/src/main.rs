//! Benchmark of the fpn-repro pipeline: BER throughput on two paper
//! fixtures plus the decode service's capacity, measured end to end
//! with per-layer timing off, or per layer (with an open-loop latency
//! curve of the service) in a separate timed run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line of raw results; `perfbench/run.py` builds this
//! binary, adds units and the run header, and applies the reference
//! checks kept in `perfbench/spec.json`.

mod ber;
mod fixture;
mod serve;
mod stats;

use fixture::{Built, Fixture, SetupTimes};
use fpn_core::{run_ber, BerStats};
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_obs::{JsonValue, Record};
use stats::{median, quantile};
use std::time::Instant;

/// How the decode service is driven on a workload's fixture.
struct ServePlan {
    shots_per_request: usize,
    /// Requests of the closed-loop capacity batch, about 0.5 s of work.
    batch_requests: usize,
    /// `low`, `mid`, `high` offered rates of the timed run's open-loop
    /// curve, in requests per second: about 15%, 30% and 50% of the
    /// service's capacity with 2 shards on a 2-core host, measured once.
    rates: [f64; 3],
    pool_shots: usize,
}

struct Workload {
    name: &'static str,
    fixture: Fixture,
    /// Shots per threaded `run_ber` call, and the number of such calls
    /// (each on its own seed) one throughput pass makes.
    chunk_shots: usize,
    chunks: usize,
    /// Shots of the thread-count identity check and the timed loop.
    check_shots: usize,
    serve: ServePlan,
}

const LADDER: [&str; 3] = ["low", "mid", "high"];
/// Set-up repetitions before the measured cycles; each cycle adds one
/// more, so the set-up samples span the whole run like the others.
const SETUP_FIRST_REPS: usize = 3;
/// The timed run's open-loop curve is sent in cycles of about this many
/// seconds, one equal segment per rate, so a slow spell of the host
/// hits every rate alike.
const CYCLE_S: f64 = 2.5;
/// Decoded shots kept from the timed loop for the stage re-enactment.
const STAGE_SHOTS: usize = 256;

/// Why each workload exists is recorded in `BENCHMARK.json`. Every
/// workload drives the decode service on its own fixture, because every
/// run reports every end-to-end metric, `serve_rps` included.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "ber_hyperbolic",
            fixture: Fixture::Hyperbolic,
            chunk_shots: 256,
            chunks: 2,
            check_shots: 128,
            serve: ServePlan {
                shots_per_request: 1,
                batch_requests: 256,
                rates: [65.0, 130.0, 215.0],
                pool_shots: 512,
            },
        },
        Workload {
            name: "ber_fpn_flagged",
            fixture: Fixture::FlagShared,
            chunk_shots: 1 << 14,
            chunks: 4,
            check_shots: 1 << 14,
            serve: ServePlan {
                shots_per_request: 256,
                batch_requests: 192,
                rates: [55.0, 110.0, 180.0],
                pool_shots: 1 << 16,
            },
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

struct Out {
    metrics: Vec<(String, JsonValue)>,
    checks: Vec<(String, JsonValue)>,
}

impl Out {
    fn metric(&mut self, name: impl Into<String>, value: impl Into<JsonValue>) {
        self.metrics.push((name.into(), value.into()));
    }
    fn check(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.checks.push((name.to_string(), value.into()));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workloads().into_iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!("{}", run(&w, &args).to_line());
}

/// The thread-count identity check: the same `(shots, seed)` run with
/// `nproc` threads and with one.
struct IdentityCheck {
    seed: u64,
    threaded: BerStats,
    threaded_s: f64,
    single: BerStats,
    single_s: f64,
}

fn run(w: &Workload, args: &Args) -> Record {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seeds = Xoshiro256StarStar::seed_from_u64(args.seed);
    let mut out = Out {
        metrics: Vec::new(),
        checks: Vec::new(),
    };

    // Set-up, as a user pays it: code, FPN, circuit, pipeline, service.
    // Peak memory is that of the first set-up, in a fresh process: later
    // repetitions and phases reuse freed memory in ways that make the
    // process peak differ from run to run.
    let (built, first) = fixture::build(w.fixture, nproc);
    let setup_rss_mb = peak_rss_mb();
    let mut reps = vec![first];
    let setup_rep = || fixture::build(w.fixture, nproc).1;
    reps.extend((1..SETUP_FIRST_REPS).map(|_| setup_rep()));
    let circuit = &built.experiment.circuit;
    let decoder = built.decoder.as_ref();

    // Bit-identity across thread counts, on seeded shots of its own.
    let seed = seeds.next_u64();
    let t = Instant::now();
    let threaded = run_ber(circuit, decoder, w.check_shots, seed, nproc);
    let threaded_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let single = run_ber(circuit, decoder, w.check_shots, seed, 1);
    let check = IdentityCheck {
        seed,
        threaded,
        threaded_s,
        single,
        single_s: t.elapsed().as_secs_f64(),
    };
    out.check(
        "threads_identical",
        ber::same_across_threads(&check.threaded, &check.single),
    );
    let plan = &w.serve;
    let pool = serve::pool(circuit, decoder, plan.pool_shots, seeds.next_u64(), nproc);
    let mut attempted = 2 * check.threaded.shots;
    let (mut failed, mut ber_shots, mut ber_failures) =
        (0, check.threaded.shots, check.threaded.failures);

    if args.trace {
        traced_layers(&mut out, w, &built, &reps, &check, nproc);
        // The timed loop and its untimed baseline.
        attempted += 2 * check.threaded.shots;
        let shards = built.service.shards();
        let mut arrivals = Xoshiro256StarStar::seed_from_u64(seeds.next_u64());
        let cycles = ((args.seconds / CYCLE_S).round() as usize).max(3);
        let segment_s = args.seconds / (cycles * LADDER.len()) as f64;
        let mut steps: [serve::Step; 3] = Default::default();
        for _ in 0..cycles {
            for (st, &rate) in steps.iter_mut().zip(&plan.rates) {
                let spr = plan.shots_per_request;
                serve::segment(
                    &built.service,
                    &pool,
                    spr,
                    rate,
                    segment_s,
                    &mut arrivals,
                    st,
                );
            }
        }
        let mut wrong = 0;
        for (label, st) in LADDER.iter().zip(&steps) {
            attempted += st.sent;
            failed += st.rejected + st.failed;
            wrong += st.wrong;
            serve_layers(&mut out, label, st, shards);
            out.check(&format!("serve_failed.{label}"), st.rejected + st.failed);
        }
        out.check("serve_replies_identical", wrong == 0);
    } else {
        // Cycles of a throughput pass, a capacity batch and one more
        // set-up, until the run's time is spent.
        let chunk_seeds = (0..w.chunks).map(|_| seeds.next_u64()).collect();
        let mut through = ber::Throughput::new(w.chunk_shots, chunk_seeds);
        let mut capacity = serve::Capacity::new(plan.batch_requests);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds {
            through.pass(circuit, decoder, nproc);
            capacity.pass(&built.service, &pool, plan.shots_per_request);
            reps.push(setup_rep());
        }
        out.metric("setup_s", median_of(&reps, SetupTimes::total));
        out.metric("shots_per_s", through.shots_per_s());
        out.metric("peak_rss_mb", setup_rss_mb);
        out.metric("serve_rps", capacity.requests_per_s());
        out.check("repeats_identical", through.mismatches == 0);
        out.check("serve_replies_identical", capacity.wrong == 0);
        let (shots, failures) = through.distinct();
        ber_shots += shots;
        ber_failures += failures;
        attempted += through.attempted + capacity.attempted;
        failed += through.giveups + capacity.failed;
    }

    Record::new()
        .field("workload", w.name)
        .field("seed", args.seed)
        .field("nproc", nproc)
        .field("trace", args.trace)
        .field("detectors", built.detectors)
        .field("mechanisms", built.mechanisms)
        .field("ber_shots", ber_shots)
        .field("ber_failures", ber_failures)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("checks", JsonValue::Object(out.checks))
        .field("metrics", JsonValue::Object(out.metrics))
}

/// The open-loop curve's per-layer metrics at one offered rate.
fn serve_layers(out: &mut Out, label: &str, st: &serve::Step, shards: usize) {
    let q = |samples: &[f64], p| quantile(samples, p);
    out.metric(format!("serve.queue_ms.p50.{label}"), q(&st.queue_ms, 0.5));
    out.metric(format!("serve.queue_ms.p99.{label}"), q(&st.queue_ms, 0.99));
    out.metric(
        format!("serve.decode_ms.p50.{label}"),
        q(&st.decode_ms, 0.5),
    );
    out.metric(
        format!("serve.decode_ms.p99.{label}"),
        q(&st.decode_ms, 0.99),
    );
    out.metric(format!("serve.reply_ms.p99.{label}"), q(&st.reply_ms, 0.99));
    out.metric(
        format!("serve.shard_busy_share.{label}"),
        st.busy_share(shards),
    );
    out.metric(format!("serve.rejected.{label}"), st.rejected);
    let backlog = st.backlog_end.iter().max().copied().unwrap_or(0);
    out.metric(format!("serve.backlog_end.{label}"), backlog);
    out.metric(format!("serve.gen_lag_ms.p99.{label}"), q(&st.lag_ms, 0.99));
    for (name, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        out.metric(format!("serve.latency_ms.{name}.{label}"), st.p(p));
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced run's per-layer metrics outside the serve ladder: set-up
/// calls one by one, the single-threaded sample/decode loop with each
/// call timed, tier counters, and the stage re-enactment.
fn traced_layers(
    out: &mut Out,
    w: &Workload,
    built: &Built,
    reps: &[SetupTimes],
    check: &IdentityCheck,
    nproc: usize,
) {
    out.metric("code.build_ms", median_of(reps, |t| t.code) * 1e3);
    out.metric("arch.fpn_build_ms", median_of(reps, |t| t.fpn) * 1e3);
    out.metric(
        "sched.circuit_build_ms",
        median_of(reps, |t| t.circuit) * 1e3,
    );
    let splits: Vec<_> = (0..3).map(|_| fixture::split_pipeline(built)).collect();
    out.metric("sim.dem_build_ms", median_of(&splits, |s| s.dem_s) * 1e3);
    out.metric("decode.build_ms", median_of(&splits, |s| s.decoder_s) * 1e3);
    let split = splits.into_iter().next_back().expect("three splits");
    out.metric("sim.dem_mechanisms", split.dem.mechanisms().len());
    out.metric("decode.index_bytes", split.index_bytes);

    let (circuit, decoder, dem) = (
        &built.experiment.circuit,
        built.decoder.as_ref(),
        &split.dem,
    );
    let (seed, shots) = (check.seed, w.check_shots);
    let plain = ber::serial(circuit, decoder, dem, shots, seed, false, 0);
    let traced = ber::serial(circuit, decoder, dem, shots, seed, true, STAGE_SHOTS);
    out.check(
        "traced_matches_threaded",
        traced.failures == check.threaded.failures && plain.failures == check.threaded.failures,
    );
    let loop_ns = traced.elapsed_s * 1e9;
    let sample_ns = traced.sample_s * 1e9;
    let decode_ns = &traced.decode_ns;
    let decode_sum: f64 = decode_ns.iter().sum();
    let decoded = traced.decoded.max(1) as f64;
    out.metric("sim.sample_ns_per_shot", sample_ns / traced.shots as f64);
    out.metric("sim.sample_share", sample_ns / loop_ns);
    out.metric("decode.ns_per_shot.p50", quantile(decode_ns, 0.5));
    out.metric("decode.ns_per_shot.p99", quantile(decode_ns, 0.99));
    out.metric("decode.share", decode_sum / loop_ns);
    out.metric(
        "core.loop_self_share",
        (loop_ns - sample_ns - decode_sum) / loop_ns,
    );
    out.metric(
        "decode.decoded_share",
        traced.decoded as f64 / traced.shots as f64,
    );
    out.metric("decode.defects_per_shot", traced.defects as f64 / decoded);
    out.metric("decode.flagged_share", traced.flagged as f64 / decoded);
    let s = &traced.stats;
    out.metric("decode.tier.oracle_hits", s.oracle_hits);
    out.metric("decode.tier.flag_oracle_hits", s.flag_oracle_hits);
    out.metric("decode.tier.sparse_hits", s.sparse_hits);
    out.metric("decode.tier.oracle_misses", s.oracle_misses);
    out.metric("decode.tier.blossom_solves", s.blossom_solves);
    out.metric("decode.tier.sparse_blossom", s.sparse_blossom);
    out.metric(
        "decode.flag_oracle_hit_rate",
        s.flag_oracle_hits as f64 / traced.flagged.max(1) as f64,
    );
    let threaded_rate = check.threaded.shots as f64 / check.threaded_s;
    let single_rate = check.single.shots as f64 / check.single_s;
    out.metric(
        "core.scaling_efficiency",
        threaded_rate / (nproc as f64 * single_rate),
    );
    out.metric("core.logical_failures", traced.failures);
    out.metric("obs.trace_overhead", traced.elapsed_s / plain.elapsed_s);

    // Stage split, re-enacted where the sparse path tier decodes; 0 on
    // workloads whose graphs the dense oracles serve.
    let mut shares = [0.0; 4];
    if split.mwpm.sparse_finder().is_some() {
        let st = ber::stages(&split.mwpm, &traced.kept);
        let sum = (st.split_ns + st.path_ns + st.match_ns) as f64;
        shares = [
            st.split_ns as f64 / sum,
            st.path_ns as f64 / sum,
            st.match_ns as f64 / sum,
            sum / st.decode_ns as f64,
        ];
        out.check("stage_shots", st.shots);
    }
    for (name, share) in [
        "split_share",
        "path_supply_share",
        "match_share",
        "reconcile",
    ]
    .iter()
    .zip(shares)
    {
        out.metric(format!("decode.stage.{name}"), share);
    }
}
