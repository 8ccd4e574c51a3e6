//! The decode service driven two ways with pre-sampled syndromes: a
//! closed-loop batch that keeps every shard busy (capacity), and an
//! open-loop curve sent by one generator thread at seeded Poisson
//! arrival times, each request timed from when it was due (latency).

use crate::stats::{median, quantile};
use qec_decode::{DecodeScratch, Decoder};
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_math::BitVec;
use qec_serve::{DecodeService, PendingResponse, ServeResult};
use qec_sim::{Circuit, FrameBatch, FrameSampler};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How often the generator polls replies while it has nothing to send.
const POLL: Duration = Duration::from_micros(100);
/// How long a segment may take to drain after its schedule ends before the
/// requests still pending count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Syndromes the requests draw from, with their offline corrections.
pub struct Pool {
    pub syndromes: Vec<BitVec>,
    pub expected: Vec<BitVec>,
}

/// Samples `shots` syndromes (zero syndromes included, as a stream
/// would carry them) and decodes each offline with `decode_into`,
/// untimed, on `threads` threads.
pub fn pool(
    circuit: &Circuit,
    decoder: &(dyn Decoder + Send + Sync),
    shots: usize,
    seed: u64,
    threads: usize,
) -> Pool {
    let sampler = FrameSampler::new(circuit);
    let mut frames = FrameBatch::new();
    let mut syndromes = Vec::with_capacity(shots);
    for b in 0..shots.div_ceil(64) {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
        let batch = sampler.sample_batch_with(&mut frames, &mut rng);
        for shot in 0..64.min(shots - syndromes.len()) {
            syndromes.push(batch.detector_bits(shot));
        }
    }
    let mut expected = vec![BitVec::zeros(0); shots];
    let per = shots.div_ceil(threads);
    std::thread::scope(|scope| {
        for (inputs, outputs) in syndromes.chunks(per).zip(expected.chunks_mut(per)) {
            scope.spawn(move || {
                let mut scratch = DecodeScratch::new();
                for (dets, out) in inputs.iter().zip(outputs) {
                    decoder.decode_into(dets, &mut scratch, out);
                }
            });
        }
    });
    Pool {
        syndromes,
        expected,
    }
}

impl Pool {
    /// Pool shots of request `k`, `shots_per_request` long, wrapping.
    fn request(&self, k: usize, shots_per_request: usize) -> std::ops::Range<usize> {
        let start = (k * shots_per_request) % (self.syndromes.len() - shots_per_request + 1);
        start..start + shots_per_request
    }
}

/// Requests in flight per shard in the closed loop: enough that a shard
/// never waits for the client.
const IN_FLIGHT_PER_SHARD: usize = 4;

/// A fixed batch of requests sent closed-loop, repeated for the whole
/// run; the capacity is the batch over its median time.
#[derive(Debug, Default)]
pub struct Capacity {
    times_s: Vec<f64>,
    requests: usize,
    pub attempted: usize,
    /// Rejections, errors and replies that differ from the offline
    /// decode.
    pub failed: usize,
    pub wrong: usize,
}

impl Capacity {
    pub fn new(requests: usize) -> Self {
        Capacity {
            requests,
            ..Capacity::default()
        }
    }

    /// Sends the batch once, keeping `IN_FLIGHT_PER_SHARD` requests per
    /// shard outstanding, and checks every reply against the pool.
    pub fn pass(&mut self, service: &DecodeService, pool: &Pool, shots_per_request: usize) {
        let window = IN_FLIGHT_PER_SHARD * service.shards();
        let mut pending: VecDeque<(usize, PendingResponse)> = VecDeque::with_capacity(window);
        let start = Instant::now();
        for k in 0..self.requests + window {
            if pending.len() == window || k >= self.requests {
                let Some((j, p)) = pending.pop_front() else {
                    break;
                };
                self.check(pool, shots_per_request, j, p.wait());
            }
            if k < self.requests {
                let shots = pool.syndromes[pool.request(k, shots_per_request)].to_vec();
                match service.try_submit(shots) {
                    Ok(p) => pending.push_back((k, p)),
                    Err(_) => self.failed += 1,
                }
            }
        }
        self.times_s.push(start.elapsed().as_secs_f64());
        self.attempted += self.requests;
    }

    fn check(&mut self, pool: &Pool, spr: usize, k: usize, reply: ServeResult) {
        match reply {
            Ok(resp) if resp.corrections[..] == pool.expected[pool.request(k, spr)] => {}
            Ok(_) => {
                self.wrong += 1;
                self.failed += 1;
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Requests per second at the batch's median time.
    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / median(&self.times_s)
    }
}

/// What one offered rate produced, over all its segments.
#[derive(Debug, Default)]
pub struct Step {
    pub sent: usize,
    pub rejected: usize,
    /// Errors, replies that differ from the offline decode, and requests
    /// still pending after the drain limit.
    pub failed: usize,
    pub wrong: usize,
    /// Client latency from the scheduled send time, ms; `+inf` for
    /// rejected or failed requests.
    pub latency_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    /// Client time from send to observed reply minus the service's own
    /// submit-to-reply time, ms.
    pub reply_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent or due but unanswered when each segment's schedule
    /// ended.
    pub backlog_end: Vec<usize>,
    decode_s: f64,
    wall_s: f64,
}

impl Step {
    /// The `q`-quantile of latency over every request of this rate.
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// Summed decode time over shards × the segments' wall time.
    pub fn busy_share(&self, shards: usize) -> f64 {
        self.decode_s / (self.wall_s * shards as f64)
    }
}

/// Runs one segment of an offered rate: Poisson arrivals drawn from
/// `rng` for `seconds`, then a drain until every request is answered,
/// so the next segment starts on an idle service. Request `k` of the
/// rate carries pool shots from `k * shots_per_request` on (wrapping).
pub fn segment(
    service: &DecodeService,
    pool: &Pool,
    shots_per_request: usize,
    rate: f64,
    seconds: f64,
    rng: &mut Xoshiro256StarStar,
    st: &mut Step,
) {
    let origin = Instant::now() + Duration::from_millis(1);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= seconds {
            break;
        }
        due.push(origin + Duration::from_secs_f64(t));
    }
    let schedule_end = origin + Duration::from_secs_f64(seconds);
    let n = due.len();
    let first = st.latency_ms.len();
    st.latency_ms.resize(first + n, f64::INFINITY);
    let request = |k: usize| pool.request(k, shots_per_request);
    let mut pending = Vec::new();
    let mut last_reply = origin;
    let mut backlog_recorded = false;
    let mut next = 0;
    loop {
        while next < n && due[next] <= Instant::now() {
            let k = first + next;
            let shots = pool.syndromes[request(k)].to_vec();
            let sent = Instant::now();
            st.lag_ms.push((sent - due[next]).as_secs_f64() * 1e3);
            match service.try_submit(shots) {
                Ok(p) => pending.push((next, sent, p)),
                Err(_) => st.rejected += 1,
            }
            next += 1;
        }
        let now = Instant::now();
        pending.retain(|(i, sent, p)| {
            let Some(result) = p.try_wait() else {
                return true;
            };
            let k = first + *i;
            match result {
                Ok(resp) if resp.corrections[..] == pool.expected[request(k)] => {
                    let latency = (now - due[*i]).as_secs_f64() * 1e3;
                    st.latency_ms[k] = latency;
                    st.queue_ms.push(resp.timings.queue_ns as f64 / 1e6);
                    st.decode_ms.push(resp.timings.decode_ns as f64 / 1e6);
                    let client_ms = (now - *sent).as_secs_f64() * 1e3;
                    st.reply_ms
                        .push(client_ms - resp.timings.total_ns as f64 / 1e6);
                    st.decode_s += resp.timings.decode_ns as f64 / 1e9;
                    last_reply = now;
                }
                Ok(_) => {
                    st.wrong += 1;
                    st.failed += 1;
                }
                Err(_) => st.failed += 1,
            }
            false
        });
        if !backlog_recorded && now >= schedule_end {
            st.backlog_end.push(pending.len() + (n - next));
            backlog_recorded = true;
        }
        if next == n && pending.is_empty() {
            break;
        }
        if now > schedule_end + DRAIN_LIMIT {
            st.failed += pending.len();
            break;
        }
        let wake = if next < n {
            due[next].min(now + POLL)
        } else {
            now + POLL
        };
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    if !backlog_recorded {
        st.backlog_end.push(0);
    }
    st.sent += n;
    st.wall_s += last_reply
        .max(schedule_end)
        .duration_since(origin)
        .as_secs_f64();
}
