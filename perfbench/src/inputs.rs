//! Seeded inputs and exact ground truth, cached on disk by (workload, seed).
//!
//! `perfbench prepare` generates a workload's inputs once per seed; every measuring
//! run only reads the cache, so generation never shows up in a timed phase or in the
//! run's peak RSS.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use p2h_core::{kernels, HyperplaneQuery, PointSet, Scalar, TopKCollector};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::*;

/// Bumped whenever generation changes, so stale caches are never read.
const CACHE_VERSION: u32 = 3;
/// Cached seeds kept per workload (up to ~30 MB each); older ones are evicted.
const CACHE_KEEP: usize = 16;
const MAGIC: &[u8; 8] = b"PBINPUT1";

/// Inputs of the query workloads (`search-batch`, `front-open`).
#[derive(Debug, Clone)]
pub struct QueryInputs {
    /// Augmented points.
    pub points: PointSet,
    /// The query pool.
    pub queries: Vec<HyperplaneQuery>,
    /// Exact top-[`K`] `(id, distance)` per pool query.
    pub truth: Vec<Vec<(u32, Scalar)>>,
}

/// Inputs of `active-learning`.
#[derive(Debug, Clone)]
pub struct ActiveInputs {
    /// Raw base points, row-major.
    pub base: Vec<Scalar>,
    /// Raw points inserted into the WAL tail.
    pub tail: Vec<Scalar>,
    /// Base ids deleted in the WAL tail.
    pub tail_deletes: Vec<u32>,
    /// [`AL_CLASSES`] hyperplanes per round, round-major.
    pub hyperplanes: Vec<HyperplaneQuery>,
    /// [`AL_ARRIVALS`] raw points per round, round-major.
    pub arrivals: Vec<Scalar>,
}

/// Where a workload's cached inputs live.
pub fn cache_path(work: &Path, workload: &str, seed: u64) -> PathBuf {
    work.join("cache").join(format!("{workload}-{seed}-v{CACHE_VERSION}.bin"))
}

/// Generates and caches `workload`'s inputs unless the cache already holds them.
/// Returns whether anything was generated.
///
/// # Errors
///
/// Unknown workload or an I/O failure.
pub fn prepare(work: &Path, workload: &str, seed: u64) -> Result<bool, String> {
    let path = cache_path(work, workload, seed);
    if path.exists() {
        return Ok(false);
    }
    let mut blob = Blob::default();
    match workload {
        "search-batch" => encode_query_inputs(
            &mut blob,
            &query_inputs(SB_N, SB_RAW_DIM, SB_CLUSTERS, SB_POOL, seed)?,
        ),
        "front-open" => encode_query_inputs(
            &mut blob,
            &query_inputs(FO_N, FO_RAW_DIM, FO_CLUSTERS, FO_POOL, seed)?,
        ),
        "active-learning" => encode_active_inputs(&mut blob, &active_inputs(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    }
    let dir = path.parent().expect("cache path has a parent");
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, &blob.bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    evict_old(dir, workload);
    Ok(true)
}

/// Deletes all but the [`CACHE_KEEP`] most recently written caches of `workload`.
fn evict_old(dir: &Path, workload: &str) {
    let prefix = format!("{workload}-");
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut caches: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    caches.sort();
    let excess = caches.len().saturating_sub(CACHE_KEEP);
    for (_, path) in caches.into_iter().take(excess) {
        let _ = fs::remove_file(path);
    }
}

/// Reads cached query-workload inputs.
///
/// # Errors
///
/// A missing or malformed cache file (run `prepare` first).
pub fn load_query_inputs(work: &Path, workload: &str, seed: u64) -> Result<QueryInputs, String> {
    let mut blob = Blob::read(&cache_path(work, workload, seed))?;
    let dim = blob.u32()? as usize;
    let points = PointSet::from_flat(dim, blob.f32s()?).map_err(|e| e.to_string())?;
    let queries = decode_queries(&mut blob, dim)?;
    let ids = blob.u32s()?;
    let dists = blob.f32s()?;
    let truth = ids
        .chunks(K)
        .zip(dists.chunks(K))
        .map(|(ids, dists)| ids.iter().copied().zip(dists.iter().copied()).collect())
        .collect();
    Ok(QueryInputs { points, queries, truth })
}

/// Reads cached `active-learning` inputs.
///
/// # Errors
///
/// A missing or malformed cache file (run `prepare` first).
pub fn load_active_inputs(work: &Path, seed: u64) -> Result<ActiveInputs, String> {
    let mut blob = Blob::read(&cache_path(work, "active-learning", seed))?;
    let base = blob.f32s()?;
    let tail = blob.f32s()?;
    let tail_deletes = blob.u32s()?;
    let hyperplanes = decode_queries(&mut blob, AL_RAW_DIM + 1)?;
    let arrivals = blob.f32s()?;
    Ok(ActiveInputs { base, tail, tail_deletes, hyperplanes, arrivals })
}

fn query_inputs(
    n: usize,
    raw_dim: usize,
    clusters: usize,
    pool: usize,
    seed: u64,
) -> Result<QueryInputs, String> {
    let spec = SyntheticDataset::new(
        "perfbench",
        n,
        raw_dim,
        DataDistribution::GaussianClusters { clusters, std_dev: 1.0 },
        seed,
    );
    let points = spec.generate().map_err(|e| e.to_string())?;
    let queries = generate_queries(&points, pool, QueryDistribution::DataDifference, seed ^ 0x51)
        .map_err(|e| e.to_string())?;
    let truth = exact_top_k(&points, &queries, K, crate::env::nproc());
    Ok(QueryInputs { points, queries, truth })
}

/// Exact top-`k` by exhaustive scan, blocked so that each strip of rows is reused by
/// every query while it is cache-resident.
pub fn exact_top_k(
    points: &PointSet,
    queries: &[HyperplaneQuery],
    k: usize,
    threads: usize,
) -> Vec<Vec<(u32, Scalar)>> {
    const STRIP: usize = 256;
    let dim = points.dim();
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    let mut out = vec![Vec::new(); queries.len()];
    std::thread::scope(|scope| {
        for (qs, slots) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut heaps: Vec<TopKCollector> =
                    qs.iter().map(|_| TopKCollector::new(k)).collect();
                let mut dists = vec![0.0 as Scalar; STRIP];
                let mut start = 0;
                while start < points.len() {
                    let end = (start + STRIP).min(points.len());
                    let rows = points.flat_range(start, end);
                    let dists = &mut dists[..end - start];
                    for (q, heap) in qs.iter().zip(heaps.iter_mut()) {
                        kernels::abs_dot_block(q.coeffs(), rows, dim, dists);
                        for (offset, &d) in dists.iter().enumerate() {
                            heap.offer(start + offset, d);
                        }
                    }
                    start = end;
                }
                for (heap, slot) in heaps.into_iter().zip(slots.iter_mut()) {
                    *slot = heap
                        .into_sorted_vec()
                        .into_iter()
                        .map(|n| (n.index as u32, n.distance))
                        .collect();
                }
            });
        }
    });
    out
}

/// Box–Muller standard normal.
fn normal(rng: &mut StdRng) -> Scalar {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as Scalar
}

/// The `active-learning` stream: `AL_CLASSES` Gaussian classes on standardized
/// (unit-scale) features, one-vs-rest hyperplanes that drift a little every round
/// (the retrained model), and arrivals drawn from the same mixture.
fn active_inputs(seed: u64) -> Result<ActiveInputs, String> {
    let d = AL_RAW_DIM;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1);
    let centers: Vec<Vec<Scalar>> =
        (0..AL_CLASSES).map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let sample = |rng: &mut StdRng, class: usize| -> Vec<Scalar> {
        centers[class].iter().map(|c| c + 0.2 * normal(rng)).collect()
    };
    let base: Vec<Scalar> = (0..AL_N).flat_map(|i| sample(&mut rng, i % AL_CLASSES)).collect();
    let tail: Vec<Scalar> = (0..AL_TAIL).flat_map(|i| sample(&mut rng, i % AL_CLASSES)).collect();
    let mut tail_deletes: Vec<u32> = Vec::with_capacity(AL_TAIL_DELETES);
    while tail_deletes.len() < AL_TAIL_DELETES {
        let id = rng.gen_range(0..AL_N as u32);
        if !tail_deletes.contains(&id) {
            tail_deletes.push(id);
        }
    }
    let mut hyperplanes = Vec::with_capacity(AL_MAX_ROUNDS * AL_CLASSES);
    let mut arrivals = Vec::with_capacity(AL_MAX_ROUNDS * AL_ARRIVALS * d);
    for round in 0..AL_MAX_ROUNDS {
        for class in 0..AL_CLASSES {
            // One-vs-rest boundary between the class center and the mean of the
            // others, jittered so the labelled points change from round to round.
            let rest: Vec<Scalar> = (0..d)
                .map(|j| {
                    (0..AL_CLASSES).filter(|&c| c != class).map(|c| centers[c][j]).sum::<Scalar>()
                        / (AL_CLASSES - 1) as Scalar
                })
                .collect();
            let shift: Scalar = rng.gen_range(0.3..0.7);
            let mut normal_vec = Vec::with_capacity(d);
            let mut bias = 0.0;
            for j in 0..d {
                let w = centers[class][j] - rest[j] + 0.05 * normal(&mut rng);
                let through = rest[j] + shift * (centers[class][j] - rest[j]);
                bias -= w * through;
                normal_vec.push(w);
            }
            hyperplanes.push(
                HyperplaneQuery::from_normal_and_bias(&normal_vec, bias)
                    .map_err(|e| e.to_string())?,
            );
        }
        for j in 0..AL_ARRIVALS {
            arrivals.extend(sample(&mut rng, (round * AL_ARRIVALS + j) % AL_CLASSES));
        }
    }
    Ok(ActiveInputs { base, tail, tail_deletes, hyperplanes, arrivals })
}

fn encode_query_inputs(blob: &mut Blob, inputs: &QueryInputs) {
    blob.put_u32(inputs.points.dim() as u32);
    blob.put_f32s(inputs.points.as_flat());
    encode_queries(blob, &inputs.queries);
    let ids: Vec<u32> = inputs.truth.iter().flat_map(|t| t.iter().map(|p| p.0)).collect();
    let dists: Vec<f32> = inputs.truth.iter().flat_map(|t| t.iter().map(|p| p.1)).collect();
    blob.put_u32s(&ids);
    blob.put_f32s(&dists);
}

fn encode_active_inputs(blob: &mut Blob, inputs: &ActiveInputs) {
    blob.put_f32s(&inputs.base);
    blob.put_f32s(&inputs.tail);
    blob.put_u32s(&inputs.tail_deletes);
    encode_queries(blob, &inputs.hyperplanes);
    blob.put_f32s(&inputs.arrivals);
}

/// Queries travel as their normalized coefficients plus norm, so the decoded query
/// is bit-identical to the generated one.
fn encode_queries(blob: &mut Blob, queries: &[HyperplaneQuery]) {
    let coeffs: Vec<f32> = queries.iter().flat_map(|q| q.coeffs().iter().copied()).collect();
    let norms: Vec<f32> = queries.iter().map(HyperplaneQuery::norm).collect();
    blob.put_f32s(&coeffs);
    blob.put_f32s(&norms);
}

fn decode_queries(blob: &mut Blob, dim: usize) -> Result<Vec<HyperplaneQuery>, String> {
    let coeffs = blob.f32s()?;
    let norms = blob.f32s()?;
    if coeffs.len() != norms.len() * dim {
        return Err("cached queries have the wrong shape".into());
    }
    coeffs
        .chunks(dim)
        .zip(norms)
        .map(|(c, norm)| {
            HyperplaneQuery::from_transport_parts(c.to_vec(), norm).map_err(|e| e.to_string())
        })
        .collect()
}

/// A length-prefixed little-endian section file.
#[derive(Default)]
struct Blob {
    bytes: Vec<u8>,
    at: usize,
}

impl Blob {
    fn read(path: &Path) -> Result<Self, String> {
        let mut bytes = Vec::new();
        fs::File::open(path).and_then(|mut f| f.read_to_end(&mut bytes)).map_err(|e| {
            format!("read cached inputs {}: {e} (run prepare first)", path.display())
        })?;
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(format!("{} is not a perfbench input cache", path.display()));
        }
        Ok(Self { bytes, at: MAGIC.len() })
    }

    fn header(&mut self) {
        if self.bytes.is_empty() {
            self.bytes.write_all(MAGIC).expect("vec write");
        }
    }

    fn put_u32(&mut self, v: u32) {
        self.header();
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32s(&mut self, values: &[u32]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn put_f32s(&mut self, values: &[f32]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let raw = self.bytes.get(self.at..end).ok_or("truncated input cache")?;
        self.at = end;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let len = self.u32()? as usize;
        (0..len).map(|_| self.u32()).collect()
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        Ok(self.u32s()?.into_iter().map(f32::from_bits).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips_bit_exactly_and_blocked_truth_matches_linear_scan() {
        use p2h_core::{LinearScan, P2hIndex};
        let work = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        let inputs = query_inputs(1_000, 6, 4, 20, 3).unwrap();
        let mut blob = Blob::default();
        encode_query_inputs(&mut blob, &inputs);
        let path = cache_path(&work, "t", 3);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &blob.bytes).unwrap();
        let back = load_query_inputs(&work, "t", 3).unwrap();
        fs::remove_dir_all(&work).ok();
        assert_eq!(back.points, inputs.points);
        assert_eq!(back.queries, inputs.queries);
        assert_eq!(back.truth, inputs.truth);

        let scan = LinearScan::new(inputs.points.clone());
        for (q, truth) in inputs.queries.iter().zip(&inputs.truth) {
            let want = scan.search_exact(q, K);
            let got: Vec<(u32, f32)> =
                want.neighbors.iter().map(|n| (n.index as u32, n.distance)).collect();
            assert_eq!(&got, truth);
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = active_inputs(9).unwrap();
        let b = active_inputs(9).unwrap();
        assert_eq!(a.hyperplanes, b.hyperplanes);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(active_inputs(10).unwrap().base, a.base);
    }
}
