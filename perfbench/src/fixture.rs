//! The paper fixtures the workloads run on, built through the same
//! public calls a user makes: code → FPN → circuit → decoding pipeline
//! → decode service.

use fpn_core::{DecoderKind, DecodingPipeline};
use qec_arch::{FlagProxyNetwork, FpnConfig};
use qec_code::hyperbolic::{hyperbolic_surface_code, SURFACE_REGISTRY};
use qec_code::CssCode;
use qec_decode::{Decoder, MwpmConfig, MwpmDecoder};
use qec_sched::{build_memory_circuit, Basis, MemoryExperiment};
use qec_serve::{DecodeService, ServeConfig};
use qec_sim::noise::NoiseModel;
use qec_sim::DetectorErrorModel;
use std::sync::Arc;
use std::time::Instant;

/// The decoder every workload runs: both fixtures are the paper's
/// flagged matching setting.
pub const DECODER: DecoderKind = DecoderKind::FlaggedMwpm;

/// Which code, architecture and operating point a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Fixture {
    /// `[[180,4,8,8]]` {4,5} hyperbolic surface code, direct FPN,
    /// 16 rounds, `p = 1e-3`.
    Hyperbolic,
    /// The Fig. 19 `[[30,8,3,3]]` {5,5} code on its flag-sharing FPN,
    /// 3 rounds, `p = 1e-3`.
    FlagShared,
}

impl Fixture {
    fn code(self) -> CssCode {
        match self {
            Fixture::Hyperbolic => hyperbolic_surface_code(&SURFACE_REGISTRY[2]),
            Fixture::FlagShared => hyperbolic_surface_code(&SURFACE_REGISTRY[12]),
        }
        .expect("fixture code builds")
    }

    fn fpn_config(self) -> FpnConfig {
        match self {
            Fixture::FlagShared => FpnConfig::shared(),
            Fixture::Hyperbolic => FpnConfig::direct(),
        }
    }

    fn rounds(self) -> usize {
        match self {
            Fixture::Hyperbolic => 16,
            Fixture::FlagShared => 3,
        }
    }

    fn p(self) -> f64 {
        match self {
            Fixture::Hyperbolic | Fixture::FlagShared => 1e-3,
        }
    }
}

/// A built fixture: everything a BER run and a decode service need.
pub struct Built {
    pub experiment: MemoryExperiment,
    pub noise: NoiseModel,
    pub detectors: usize,
    pub mechanisms: usize,
    pub decoder: Arc<dyn Decoder + Send + Sync>,
    pub service: DecodeService,
}

/// Wall time of each user-facing set-up call, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub code: f64,
    pub fpn: f64,
    pub circuit: f64,
    pub pipeline: f64,
    pub service: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.code + self.fpn + self.circuit + self.pipeline + self.service
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Builds the fixture end to end, timing each call as a user makes it.
pub fn build(fixture: Fixture, shards: usize) -> (Built, SetupTimes) {
    let (code, t_code) = timed(|| fixture.code());
    let (fpn, t_fpn) = timed(|| FlagProxyNetwork::build(&code, &fixture.fpn_config()));
    let noise = NoiseModel::new(fixture.p());
    let (experiment, t_circuit) =
        timed(|| build_memory_circuit(&code, &fpn, Some(&noise), fixture.rounds(), Basis::Z));
    let (pipeline, t_pipeline) =
        timed(|| DecodingPipeline::new(&code, &experiment, DECODER, &noise));
    let detectors = pipeline.dem().num_detectors();
    let mechanisms = pipeline.dem().mechanisms().len();
    let decoder = pipeline.into_shared_decoder();
    let (service, t_service) =
        timed(|| DecodeService::new(Arc::clone(&decoder), ServeConfig::new().with_shards(shards)));
    let times = SetupTimes {
        code: t_code,
        fpn: t_fpn,
        circuit: t_circuit,
        pipeline: t_pipeline,
        service: t_service,
    };
    let built = Built {
        experiment,
        noise,
        detectors,
        mechanisms,
        decoder,
        service,
    };
    (built, times)
}

/// `DecodingPipeline::new` split into its two halves, for the traced
/// run: the detector error model build and the decoder constructor.
pub struct PipelineSplit {
    pub dem_s: f64,
    pub decoder_s: f64,
    pub dem: DetectorErrorModel,
    /// Bytes of the path indexes the decoder built (the `build.*.bytes`
    /// gauges of its registry).
    pub index_bytes: u64,
    /// The stage re-enactment needs the decoder's hypergraph and sparse
    /// finder.
    pub mwpm: MwpmDecoder,
}

/// The [`DECODER`] constructor as `DecodingPipeline::new` calls it.
pub fn split_pipeline(built: &Built) -> PipelineSplit {
    let (dem, dem_s) = timed(|| DetectorErrorModel::from_circuit(&built.experiment.circuit));
    let pm = built.noise.measurement_flip();
    let (mwpm, decoder_s) = timed(|| MwpmDecoder::new(&dem, MwpmConfig::flagged(pm)));
    PipelineSplit {
        dem_s,
        decoder_s,
        dem,
        index_bytes: index_bytes(&mwpm),
        mwpm,
    }
}

fn index_bytes(decoder: &dyn Decoder) -> u64 {
    let Some(metrics) = decoder.metrics() else {
        return 0;
    };
    let snapshot = metrics.snapshot();
    snapshot
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("build.") && name.ends_with(".bytes"))
        .map(|(name, _)| snapshot.gauge(name))
        .sum()
}
