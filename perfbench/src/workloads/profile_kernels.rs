//! `profile-kernels`: one single-threaded process, no simulation.
//!
//! Part 1 runs `accelctl --services configs/services characterize <svc>
//! --samples N --seed S` over all 11 packs, in a seeded order: the
//! profiler's generate, analyze and render. Part 2 runs the four
//! calibrated kernels through their auto-dispatch entry points over a
//! seeded corpus whose buffer sizes are drawn from the packs'
//! memory-copy granularity CDFs.

use std::time::Instant;

use accelerometer_fleet::{ServiceId, ServiceRegistry};
use accelerometer_kernels::aes::{self, Aes128};
use accelerometer_kernels::{hash, lz, LzScratch, Mlp, MlpScratch};
use accelerometer_profiler::{analyze, TraceGenerator};

use super::same;
use crate::spans::{Link, Recorder};
use crate::sys::{self, Rng};
use crate::{accelctl, hex, program_seed, Facts, Options, Values, Workload};

const SAMPLES: usize = 10_000;
const TINY_SAMPLES: usize = 500;
/// Corpus buffers drawn per service pack: a fixed count, so every seed
/// asks the kernels for about the same work.
const BUFFERS: usize = 32;
const TINY_BUFFERS: usize = 3;
/// The calibrated ranker's shape (`accelctl calibrate`); one inference
/// scores a buffer from its first 512 bytes.
const MLP_WIDTHS: [usize; 4] = [512, 256, 64, 1];
const MLP_SEED: u64 = 42;
/// The CLI's default `characterize` seed.
const CLI_SEED: u64 = 42;

/// SHA-256 of the iteration output at seed 0.
const PINNED: &str = "7de04e51db935d3587b04fdd34ca1dccc7943763432c341bff838a2a6f09bec5";
/// SHA-256 of the concatenated corpus at seed 0.
const PINNED_CORPUS: &str = "91d4030a47865e1ee6ccc59219abdc43280e9b5bc78fac329969817420583ba6";

pub(crate) struct ProfileKernels {
    services_dir: std::path::PathBuf,
    registry: ServiceRegistry,
    tiny: bool,
    seed: u64,
    samples: usize,
    /// `(service, characterize seed, accelctl arguments)` in run order.
    runs: Vec<(ServiceId, u64, Vec<String>)>,
    characterized: Vec<String>,
    key: [u8; aes::KEY_SIZE],
    counter: [u8; aes::BLOCK_SIZE],
    mlp: Mlp,
    corpus: Vec<Vec<u8>>,
    /// Each buffer's first 512 bytes scaled to [0, 1] (zero-padded): the
    /// ranker's features, built once outside the timed loop.
    features: Vec<Vec<f32>>,
    ciphertext: Vec<Vec<u8>>,
    digests: Vec<[u8; 32]>,
    compressed: Vec<Vec<u8>>,
    decompressed: Vec<Vec<u8>>,
    scores: Vec<Vec<f32>>,
    lz_scratch: LzScratch,
    mlp_scratch: MlpScratch,
}

/// Seeded bytes with repeats, so the compressor finds matches.
fn buffer(rng: &mut Rng, dictionary: &[Vec<u8>], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        if rng.unit() < 0.7 {
            out.extend_from_slice(&dictionary[rng.below(dictionary.len())]);
        } else {
            for _ in 0..=rng.below(8) {
                out.push(rng.next_u64() as u8);
            }
        }
    }
    out.truncate(len);
    out
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

impl ProfileKernels {
    pub(crate) fn new(opts: &Options) -> Result<Self, String> {
        let services_dir = opts.root.join("configs/services");
        let registry = ServiceRegistry::load_path(&services_dir).map_err(|e| e.to_string())?;
        let samples = if opts.tiny { TINY_SAMPLES } else { SAMPLES };
        let mut order = ServiceId::ALL.to_vec();
        let mut rng = Rng::new(sys::mix(opts.seed, 4));
        if opts.seed != 0 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
        }
        let runs = order
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let seed = program_seed(opts.seed, 16 + i as u64, CLI_SEED);
                let args = [
                    "--services".to_owned(),
                    services_dir.display().to_string(),
                    "characterize".to_owned(),
                    id.to_string(),
                    "--samples".to_owned(),
                    samples.to_string(),
                    "--seed".to_owned(),
                    seed.to_string(),
                ]
                .to_vec();
                (id, seed, args)
            })
            .collect();

        let dictionary: Vec<Vec<u8>> = (0..32)
            .map(|_| {
                (0..4 + rng.below(13))
                    .map(|_| rng.next_u64() as u8)
                    .collect()
            })
            .collect();
        let per_service = if opts.tiny { TINY_BUFFERS } else { BUFFERS };
        let mut corpus = Vec::new();
        for &id in &order {
            let cdf = registry.spec(id).copy_granularity.sampler();
            for _ in 0..per_service {
                let len = cdf.quantile(rng.unit()).get().round() as usize;
                corpus.push(buffer(&mut rng, &dictionary, len));
            }
        }
        let width = MLP_WIDTHS[0];
        let features = corpus
            .iter()
            .map(|buf| {
                let mut f: Vec<f32> = buf
                    .iter()
                    .take(width)
                    .map(|&b| f32::from(b) / 255.0)
                    .collect();
                f.resize(width, 0.0);
                f
            })
            .collect();
        let mut key = [0u8; aes::KEY_SIZE];
        let mut counter = [0u8; aes::BLOCK_SIZE];
        for byte in key.iter_mut().chain(counter.iter_mut()) {
            *byte = rng.next_u64() as u8;
        }
        let n = corpus.len();
        Ok(Self {
            services_dir,
            registry,
            tiny: opts.tiny,
            seed: opts.seed,
            samples,
            runs,
            characterized: Vec::new(),
            key,
            counter,
            mlp: Mlp::seeded_ranker(&MLP_WIDTHS, MLP_SEED),
            corpus,
            features,
            ciphertext: vec![Vec::new(); n],
            digests: vec![[0; 32]; n],
            compressed: vec![Vec::new(); n],
            decompressed: vec![Vec::new(); n],
            scores: vec![Vec::new(); n],
            lz_scratch: LzScratch::new(),
            mlp_scratch: MlpScratch::new(),
        })
    }

    fn corpus_bytes(&self) -> usize {
        self.corpus.iter().map(Vec::len).sum()
    }

    /// Bytes the ranker reads: each buffer's first 512.
    fn mlp_bytes(&self) -> usize {
        self.corpus.iter().map(|b| b.len().min(MLP_WIDTHS[0])).sum()
    }

    fn aes(&mut self) {
        for (buf, out) in self.corpus.iter().zip(&mut self.ciphertext) {
            aes::encrypt_ctr_into(&self.key, &self.counter, buf, out);
        }
    }

    fn sha256(&mut self) {
        for (buf, out) in self.corpus.iter().zip(&mut self.digests) {
            *out = hash::sha256(buf);
        }
    }

    fn lz(&mut self) -> Result<(), String> {
        for ((buf, packed), unpacked) in self
            .corpus
            .iter()
            .zip(&mut self.compressed)
            .zip(&mut self.decompressed)
        {
            lz::compress_into(buf, &mut self.lz_scratch, packed);
            lz::decompress_into(packed, unpacked).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn mlp(&mut self) -> Result<(), String> {
        for (features, scores) in self.features.iter().zip(&mut self.scores) {
            self.mlp
                .infer_into(features, &mut self.mlp_scratch, scores)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

impl Workload for ProfileKernels {
    fn setup(&self) -> Result<(), String> {
        let registry = ServiceRegistry::load_path(&self.services_dir).map_err(|e| e.to_string())?;
        let mlp = Mlp::seeded_ranker(&MLP_WIDTHS, MLP_SEED);
        std::hint::black_box((registry.loaded_services().len(), mlp.macs()));
        Ok(())
    }

    fn parts(&self) -> &'static [&'static str] {
        &["characterize", "kernels"]
    }

    fn iterate(&mut self, secs: &mut [f64]) -> Result<(), String> {
        let t0 = Instant::now();
        self.characterized = self
            .runs
            .iter()
            .map(|(_, _, args)| accelctl(args))
            .collect::<Result<_, _>>()?;
        let t1 = Instant::now();
        self.aes();
        self.sha256();
        self.lz()?;
        self.mlp()?;
        secs[0] = (t1 - t0).as_secs_f64();
        secs[1] = t1.elapsed().as_secs_f64();
        Ok(())
    }

    fn output(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.characterized)
            .concat()
            .into_bytes();
        for i in 0..self.corpus.len() {
            out.extend_from_slice(&self.ciphertext[i]);
            out.extend_from_slice(&self.digests[i]);
            out.extend_from_slice(&self.compressed[i]);
            out.extend(self.scores[i].iter().flat_map(|s| s.to_le_bytes()));
        }
        out
    }

    fn verify(&mut self, output: &[u8]) -> Result<Facts, String> {
        let text = String::from_utf8_lossy(output);
        for (id, _, _) in &self.runs {
            let head = format!("characterization of {id}:\nsamples: {} ", self.samples);
            if !text.contains(&head) {
                return Err(format!(
                    "no characterization of {id} with {} samples",
                    self.samples
                ));
            }
        }
        // Invariants, then agreement with the scalar reference paths —
        // run here, never inside the timed loop.
        let cipher = Aes128::new(&self.key);
        let mut packed = Vec::new();
        let mut plain = Vec::new();
        for (i, buf) in self.corpus.iter().enumerate() {
            if &self.decompressed[i] != buf {
                return Err(format!("buffer {i}: LZ round trip differs"));
            }
            aes::encrypt_ctr_into(&self.key, &self.counter, &self.ciphertext[i], &mut plain);
            if &plain != buf {
                return Err(format!(
                    "buffer {i}: AES-CTR applied twice is not the identity"
                ));
            }
            let mut scalar = buf.clone();
            cipher.ctr_apply_scalar(&self.counter, &mut scalar);
            if scalar != self.ciphertext[i] {
                return Err(format!("buffer {i}: AES dispatch differs from scalar"));
            }
            if hash::sha256_scalar(buf) != self.digests[i] {
                return Err(format!("buffer {i}: SHA-256 dispatch differs from scalar"));
            }
            lz::compress_into_scalar(buf, &mut LzScratch::new(), &mut packed);
            if packed != self.compressed[i] {
                return Err(format!("buffer {i}: LZ dispatch differs from scalar"));
            }
            if self
                .mlp
                .infer_scalar(&self.features[i])
                .map_err(|e| e.to_string())?
                != self.scores[i]
            {
                return Err(format!("buffer {i}: MLP dispatch differs from scalar"));
            }
        }
        let corpus = hex(&hash::sha256(&self.corpus.concat()));
        if self.seed == 0 && !self.tiny && corpus != PINNED_CORPUS {
            return Err(format!(
                "corpus sha256 {corpus} differs from the pinned {PINNED_CORPUS}"
            ));
        }
        let samples = (self.samples * self.runs.len()) as f64;
        Ok(Facts {
            model_err_pts: None,
            paper_err_pts: None,
            throughput: vec![
                ("profile_samples_per_s", samples, 0),
                (
                    "kernel_mb_per_s",
                    mb(3 * self.corpus_bytes() + self.mlp_bytes()),
                    1,
                ),
            ],
        })
    }

    fn pinned_digest(&self) -> &'static str {
        PINNED
    }

    fn probe_memory(&mut self, values: &mut Values) -> Result<(), String> {
        let (id, seed, _) = self.runs[0];
        let before = sys::rss_mb();
        let traces = TraceGenerator::new(self.registry.profile(id), seed).generate(self.samples);
        values
            .entry("profiler.mb")
            .or_default()
            .push(sys::rss_mb() - before);
        std::hint::black_box(traces.len());
        Ok(())
    }

    fn traced(
        &mut self,
        rec: &mut Recorder,
        values: &mut Values,
        reference: &[u8],
    ) -> Result<(), String> {
        let mut profiler_s = 0.0;
        let mut rendered_bytes = 0;
        self.characterized.clear();
        for (id, seed, args) in &self.runs {
            let (cli, output) =
                rec.time_hidden("cli.characterize", None, Link::Nested, || accelctl(args));
            let output = output?;
            rec.time("registry.load", Some(cli), Link::Replay, || {
                ServiceRegistry::load_path(&self.services_dir).map_err(|e| e.to_string())
            })
            .1?;
            let mut generator = TraceGenerator::new(self.registry.profile(*id), *seed);
            let (gen, traces) = rec.time("profiler.generate", Some(cli), Link::Replay, || {
                generator.generate(self.samples)
            });
            let (ana, report) = rec.time("profiler.analyze", Some(cli), Link::Replay, || {
                analyze(&traces, generator.registry())
            });
            let (_, rendered) = rec.time("render", Some(cli), Link::Replay, || report.render());
            if !output.ends_with(&rendered) {
                return Err(format!(
                    "{id}: the profiler's render differs from accelctl's output"
                ));
            }
            profiler_s += rec.spans()[gen].duration() + rec.spans()[ana].duration();
            rendered_bytes += rendered.len();
            self.characterized.push(output);
        }
        let samples = (self.samples * self.runs.len()) as f64;
        values
            .entry("profiler.ns_per_sample")
            .or_default()
            .push(profiler_s * 1e9 / samples);
        values
            .entry("render.bytes")
            .or_default()
            .push(rendered_bytes as f64);

        let corpus_mb = mb(self.corpus_bytes());
        let mlp_mb = mb(self.mlp_bytes());
        let (aes_span, ()) = rec.time("kernels.aes", None, Link::Nested, || self.aes());
        let (sha_span, ()) = rec.time("kernels.sha256", None, Link::Nested, || self.sha256());
        let (lz_span, lz) = rec.time("kernels.lz", None, Link::Nested, || self.lz());
        lz?;
        let (mlp_span, mlp) = rec.time("kernels.mlp", None, Link::Nested, || self.mlp());
        mlp?;
        for (name, span, bytes) in [
            ("kernels.aes.mb_per_s", aes_span, corpus_mb),
            ("kernels.sha256.mb_per_s", sha_span, corpus_mb),
            ("kernels.lz.mb_per_s", lz_span, corpus_mb),
            ("kernels.mlp.mb_per_s", mlp_span, mlp_mb),
        ] {
            values
                .entry(name)
                .or_default()
                .push(bytes / rec.spans()[span].duration());
        }
        same("profile-kernels", &self.output(), reference)
    }

    fn not_applicable(&self, metric: &str) -> &'static str {
        match metric.split('.').next().unwrap_or(metric) {
            "trace" | "engine" | "metrics" | "fault" | "shard" | "abtest" | "model" | "pool"
            | "sim_req_per_s" | "model_err_pts" | "paper_err_pts" => {
                "no simulation or model runs in this workload"
            }
            _ => "not exercised by this workload",
        }
    }
}
