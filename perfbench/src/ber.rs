//! The BER path: `run_ber` throughput, its correctness checks, and the
//! timed single-threaded loop that splits a shot into sampling and
//! decoding.

use crate::stats::median;
use fpn_core::{run_ber, BerStats};
use qec_decode::{
    pooled_min_weight_perfect_matching_f64, BlossomScratch, DecodeScratch, Decoder, DecoderStats,
    MwpmDecoder, SparsePathScratch,
};
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_sim::{Circuit, DetectorErrorModel, FrameBatch, FrameSampler};
use std::hint::black_box;
use std::time::Instant;

/// Threaded `run_ber` calls over a fixed set of chunks, each chunk a
/// `(shots, seed)` pair, repeated for the whole run. Repeating the same
/// shots leaves only the host's drift in a chunk's times; the throughput
/// is the shots of one pass over every chunk divided by the sum of each
/// chunk's median time.
pub struct Throughput {
    chunk_shots: usize,
    seeds: Vec<u64>,
    times_s: Vec<Vec<f64>>,
    /// The first pass of each chunk; later repeats must reproduce it.
    first: Vec<Option<BerStats>>,
    /// Shots run over all repeats.
    pub attempted: usize,
    pub giveups: usize,
    /// Repeats whose result differs from the chunk's first pass.
    pub mismatches: usize,
}

impl Throughput {
    pub fn new(chunk_shots: usize, seeds: Vec<u64>) -> Self {
        let n = seeds.len();
        Throughput {
            chunk_shots,
            seeds,
            times_s: vec![Vec::new(); n],
            first: vec![None; n],
            attempted: 0,
            giveups: 0,
            mismatches: 0,
        }
    }

    /// Runs every chunk once on `threads` threads.
    pub fn pass(&mut self, circuit: &Circuit, decoder: &(dyn Decoder + Send), threads: usize) {
        for (k, &seed) in self.seeds.iter().enumerate() {
            let t = Instant::now();
            let stats = black_box(run_ber(circuit, decoder, self.chunk_shots, seed, threads));
            self.times_s[k].push(t.elapsed().as_secs_f64());
            self.attempted += stats.shots;
            self.giveups += stats.decode_giveups;
            match &self.first[k] {
                Some(first) => self.mismatches += usize::from(!same_across_threads(first, &stats)),
                None => self.first[k] = Some(stats),
            }
        }
    }

    /// Shots per second of one pass at each chunk's median time.
    pub fn shots_per_s(&self) -> f64 {
        let shots: usize = self.first.iter().flatten().map(|s| s.shots).sum();
        shots as f64 / self.times_s.iter().map(|t| median(t)).sum::<f64>()
    }

    /// Distinct shots (one pass) and their logical failures.
    pub fn distinct(&self) -> (usize, usize) {
        let first = self.first.iter().flatten();
        first.fold((0, 0), |(n, f), s| (n + s.shots, f + s.failures))
    }
}

/// `run_ber` documents bit-identical results for any thread count:
/// failures and tier attribution must agree between `threads` and 1.
pub fn same_across_threads(a: &BerStats, b: &BerStats) -> bool {
    a.shots == b.shots
        && a.failures == b.failures
        && a.oracle_hits == b.oracle_hits
        && a.sparse_hits == b.sparse_hits
        && a.oracle_misses == b.oracle_misses
}

/// Result of one single-threaded pass over the same shots `run_ber`
/// draws for `(shots, seed)`.
pub struct Serial {
    pub shots: usize,
    pub failures: usize,
    pub elapsed_s: f64,
    /// Time in `sample_batch_with`, when timed.
    pub sample_s: f64,
    /// Time of each `decode_into` call, ns, when timed.
    pub decode_ns: Vec<f64>,
    pub decoded: usize,
    pub flagged: usize,
    pub defects: usize,
    pub stats: DecoderStats,
    /// The first decoded syndromes, kept for the stage re-enactment.
    pub kept: Vec<BitVec>,
}

/// Samples and decodes exactly as `run_ber` does with one thread. When
/// `timed`, it times every sampled batch and every decoded shot and
/// counts defects and flags; untimed, it is the baseline of the timing
/// overhead.
pub fn serial(
    circuit: &Circuit,
    decoder: &(dyn Decoder + Send),
    dem: &DetectorErrorModel,
    shots: usize,
    seed: u64,
    timed: bool,
    keep: usize,
) -> Serial {
    let is_flag: Vec<bool> = dem.detector_meta().iter().map(|m| m.is_flag).collect();
    let sampler = FrameSampler::new(circuit);
    let mut frames = FrameBatch::new();
    let mut scratch = DecodeScratch::new();
    let (mut dets, mut actual, mut predicted) =
        (BitVec::zeros(0), BitVec::zeros(0), BitVec::zeros(0));
    let before = decoder.stats();
    let mut out = Serial {
        shots: shots.div_ceil(64) * 64,
        failures: 0,
        elapsed_s: 0.0,
        sample_s: 0.0,
        decode_ns: Vec::new(),
        decoded: 0,
        flagged: 0,
        defects: 0,
        stats: DecoderStats::default(),
        kept: Vec::new(),
    };
    let start = Instant::now();
    for b in 0..shots.div_ceil(64) {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
        let t0 = timed.then(Instant::now);
        let batch = sampler.sample_batch_with(&mut frames, &mut rng);
        if let Some(t0) = t0 {
            out.sample_s += t0.elapsed().as_secs_f64();
        }
        for shot in 0..64 {
            batch.observable_bits_into(shot, &mut actual);
            batch.detector_bits_into(shot, &mut dets);
            if dets.is_zero() {
                out.failures += usize::from(!actual.is_zero());
                continue;
            }
            let t0 = timed.then(Instant::now);
            decoder.decode_into(&dets, &mut scratch, &mut predicted);
            if let Some(t0) = t0 {
                out.decode_ns.push(t0.elapsed().as_nanos() as f64);
                out.decoded += 1;
                let flags = dets.iter_ones().filter(|&d| is_flag[d]).count();
                out.flagged += usize::from(flags > 0);
                out.defects += dets.weight() - flags;
                if out.kept.len() < keep {
                    out.kept.push(dets.clone());
                }
            }
            out.failures += usize::from(predicted != actual);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.stats = decoder.stats().delta(&before);
    out
}

/// Pair distances at or above this are unreachable; the same cut-off
/// the MWPM decoder applies when it builds its matching instance.
const UNREACHABLE: f64 = 1e8;

/// Nanoseconds per stage of the MWPM sparse-tier decode, re-enacted
/// from outside through the public calls it is built from.
#[derive(Debug, Default)]
pub struct Stages {
    pub split_ns: u64,
    pub path_ns: u64,
    pub match_ns: u64,
    /// `decode_into` on the same shots.
    pub decode_ns: u64,
    pub shots: usize,
}

/// Replays flag-free shots as split → sparse path supply → pooled
/// blossom matching and times `decode_into` on the same shots. The
/// correction lift is not re-enacted, so the stage sum falls a little
/// short of the `decode_into` total.
///
/// # Panics
///
/// Panics if the decoder has no sparse path finder (graphs at or below
/// the dense-oracle node limit).
pub fn stages(decoder: &MwpmDecoder, syndromes: &[BitVec]) -> Stages {
    let hg = decoder.hypergraph();
    let finder = decoder
        .sparse_finder()
        .expect("stage re-enactment needs the sparse path tier");
    let boundary = hg
        .classes()
        .iter()
        .any(|c| c.sigma.len() == 1)
        .then_some(hg.num_check_detectors());
    let mut scratch = DecodeScratch::new();
    let mut paths = SparsePathScratch::new();
    let mut blossom = BlossomScratch::new();
    let (mut checks, mut targets, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    let (mut flags, mut out) = (BitVec::zeros(0), BitVec::zeros(0));
    let mut st = Stages::default();
    for dets in syndromes {
        let t0 = Instant::now();
        decoder.decode_into(dets, &mut scratch, &mut out);
        let t1 = Instant::now();
        hg.split_shot_into(dets, &mut checks, &mut flags);
        let t2 = Instant::now();
        if !flags.is_zero() || checks.is_empty() {
            continue;
        }
        targets.clear();
        targets.extend_from_slice(&checks);
        targets.extend(boundary);
        finder.matching_paths_into(&checks, &targets, |c| finder.class_weights()[c], &mut paths);
        let t3 = Instant::now();
        let s = checks.len();
        edges.clear();
        for i in 0..s {
            for j in i + 1..s {
                let d = paths.dist(i, j);
                if d < UNREACHABLE {
                    edges.push((i, j, d));
                }
            }
            if boundary.is_some() {
                let d = paths.dist(i, s);
                if d < UNREACHABLE {
                    edges.push((i, s + i, d));
                }
            }
        }
        let nodes = if boundary.is_some() {
            for i in 0..s {
                for j in i + 1..s {
                    edges.push((s + i, s + j, 0.0));
                }
            }
            2 * s
        } else {
            s
        };
        let matched = pooled_min_weight_perfect_matching_f64(nodes, &edges, &mut blossom)
            .map(|m| m.pairs().count());
        black_box(matched);
        let t4 = Instant::now();
        st.decode_ns += (t1 - t0).as_nanos() as u64;
        st.split_ns += (t2 - t1).as_nanos() as u64;
        st.path_ns += (t3 - t2).as_nanos() as u64;
        st.match_ns += (t4 - t3).as_nanos() as u64;
        st.shots += 1;
    }
    st
}
