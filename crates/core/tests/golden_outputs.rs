//! Bit-exact output goldens of the native executor.
//!
//! Every hash below is an FNV-1a digest over the bits of the output
//! buffers of one configuration: `execute_in` at 1, 2, 4 and 8 threads
//! and `gemm_batch` at 1, 2 and 4 threads, over the shape sets of the
//! `integration` and `isa_parity` suites, per vector ISA, for `f32`
//! and `f64`, with the model's packing decisions and with packing
//! forced on. The hashes were recorded from the tile-table walker that
//! the compiled-schedule executor replaced, so they pin every output
//! element, and every gap element left untouched, to what that
//! executor produced.
//!
//! Inputs are not dyadic (multiples of 1/997), so a change in the
//! summation order of any element changes its bits. The kernel rounds
//! every element in one order whatever the tile, packing or thread
//! count, so digests differ only where the k blocking does: the ISA's
//! kernel choice sets `kc`.

use smm_core::{execute_in, PlanConfig, Smm, SmmPlan, StridedBatch, TaskPool, VectorIsa};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_kernels::Scalar;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bit patterns of the two element types.
trait Bits: Scalar {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// `len` values in [-1, 1] on a 1/997 grid.
fn fill<S: Scalar>(len: usize, seed: u64) -> Vec<S> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            S::from_f64(((state >> 33) % 1995) as f64 / 997.0 - 1.0)
        })
        .collect()
}

/// The `integration` suite's paper shapes.
fn paper_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (5, 5, 5),
        (20, 20, 20),
        (75, 75, 75),
        (80, 80, 80),
        (200, 200, 200),
        (2, 192, 192),
        (40, 192, 192),
        (192, 2, 192),
        (192, 192, 2),
        (75, 60, 60),
        (64, 256, 256),
        (11, 4, 100),
        (1, 1, 1),
    ]
}

/// The `isa_parity` suite's edge shapes (including `k = 0`).
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(1, 7, 9), (9, 1, 7), (1, 1, 5), (5, 6, 0), (75, 33, 64)];
    for lanes in [4usize, 8, 16] {
        shapes.push((lanes - 1, lanes + 1, 8));
        shapes.push((lanes, lanes, 8));
        shapes.push((2 * lanes + 3, lanes + 2, 12));
    }
    shapes
}

const ALPHA: f64 = 1.3;
const BETA: f64 = 0.7;

/// Packing policy of a configuration: the model's, or both operands
/// forced packed.
fn config(isa: VectorIsa, threads: usize, packed: bool) -> PlanConfig {
    PlanConfig {
        max_threads: threads,
        isa,
        pack_a: packed.then_some(true),
        pack_b: packed.then_some(true),
        ..Default::default()
    }
}

/// Digest of `execute_in` over `shapes`, each with gapped leading
/// dimensions (the gap elements are hashed too, so a stray write into
/// them changes the digest).
fn exec_digest<S: Bits>(
    pool: &TaskPool,
    cfg: &PlanConfig,
    shapes: &[(usize, usize, usize)],
) -> u64 {
    let mut words = Vec::new();
    for (s, &(m, n, k)) in shapes.iter().enumerate() {
        if k == 0 {
            continue;
        }
        let (lda, ldb, ldc) = (m + 1, k + 2, m + 3);
        let seed = 100 * s as u64;
        let a = fill::<S>(lda * k, seed + 1);
        let b = fill::<S>(ldb * n, seed + 2);
        let mut c = fill::<S>(ldc * n, seed + 3);
        let plan = SmmPlan::build(m, n, k, cfg);
        execute_in(
            pool,
            &plan,
            S::from_f64(ALPHA),
            MatRef::from_slice(&a, m, k, lda),
            MatRef::from_slice(&b, k, n, ldb),
            S::from_f64(BETA),
            MatMut::from_slice(&mut c, m, n, ldc),
        );
        words.extend(c.iter().map(|x| x.bits()));
    }
    fnv(words)
}

/// Digest of `gemm_batch` over `shapes`: five entries per shape, with
/// gapped leading dimensions and strides, the whole `C` buffer hashed.
fn batch_digest<S: Bits>(cfg: &PlanConfig, shapes: &[(usize, usize, usize)]) -> u64 {
    let smm = Smm::<S>::with_config(cfg.clone());
    let mut words = Vec::new();
    for (s, &(m, n, k)) in shapes.iter().enumerate() {
        let (lda, ldb, ldc) = (m + 1, k + 2, m + 3);
        let desc = StridedBatch::try_new(
            m,
            n,
            k,
            5,
            lda,
            lda * k + 3,
            ldb,
            ldb * n + 1,
            ldc,
            ldc * n + 2,
        )
        .unwrap();
        let seed = 100 * s as u64;
        let a = fill::<S>(5 * desc.stride_a, seed + 4);
        let b = fill::<S>(5 * desc.stride_b, seed + 5);
        let mut c = fill::<S>(5 * desc.stride_c, seed + 6);
        smm.gemm_batch(&desc, S::from_f64(ALPHA), &a, &b, S::from_f64(BETA), &mut c)
            .unwrap();
        words.extend(c.iter().map(|x| x.bits()));
    }
    fnv(words)
}

/// Every configuration's digest, labelled.
fn digests() -> Vec<(String, u64)> {
    let pool = TaskPool::new(2);
    let mut out = Vec::new();
    for isa in VectorIsa::all() {
        let mut shapes = edge_shapes();
        if isa == VectorIsa::neon128() {
            shapes.extend(paper_shapes());
        }
        for packed in [false, true] {
            let policy = if packed { "packed" } else { "model" };
            for threads in [1, 2, 4, 8] {
                let cfg = config(isa, threads, packed);
                let h = exec_digest::<f32>(&pool, &cfg, &shapes);
                out.push((format!("exec f32 {isa} {policy} t{threads}"), h));
            }
            for threads in [1, 2, 4] {
                let cfg = config(isa, threads, packed);
                let h = batch_digest::<f32>(&cfg, &edge_shapes());
                out.push((format!("batch f32 {isa} {policy} t{threads}"), h));
            }
        }
    }
    let neon = VectorIsa::neon128();
    for threads in [1, 4] {
        let cfg = config(neon, threads, false);
        let h = exec_digest::<f64>(&pool, &cfg, &paper_shapes());
        out.push((format!("exec f64 neon128 model t{threads}"), h));
        let h = batch_digest::<f64>(&cfg, &edge_shapes());
        out.push((format!("batch f64 neon128 model t{threads}"), h));
    }
    out
}

/// Recorded from the tile-table walker.
const GOLDEN: &[(&str, u64)] = &[
    ("exec f32 neon128 model t1", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 model t2", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 model t4", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 model t8", 0xc82da4ddfbc5936b),
    ("batch f32 neon128 model t1", 0x900cc3c71e54d7c4),
    ("batch f32 neon128 model t2", 0x900cc3c71e54d7c4),
    ("batch f32 neon128 model t4", 0x900cc3c71e54d7c4),
    ("exec f32 neon128 packed t1", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 packed t2", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 packed t4", 0xc82da4ddfbc5936b),
    ("exec f32 neon128 packed t8", 0xc82da4ddfbc5936b),
    ("batch f32 neon128 packed t1", 0x900cc3c71e54d7c4),
    ("batch f32 neon128 packed t2", 0x900cc3c71e54d7c4),
    ("batch f32 neon128 packed t4", 0x900cc3c71e54d7c4),
    ("exec f32 sve256 model t1", 0xe0e1160945ccd567),
    ("exec f32 sve256 model t2", 0xe0e1160945ccd567),
    ("exec f32 sve256 model t4", 0xe0e1160945ccd567),
    ("exec f32 sve256 model t8", 0xe0e1160945ccd567),
    ("batch f32 sve256 model t1", 0x900cc3c71e54d7c4),
    ("batch f32 sve256 model t2", 0x900cc3c71e54d7c4),
    ("batch f32 sve256 model t4", 0x900cc3c71e54d7c4),
    ("exec f32 sve256 packed t1", 0xe0e1160945ccd567),
    ("exec f32 sve256 packed t2", 0xe0e1160945ccd567),
    ("exec f32 sve256 packed t4", 0xe0e1160945ccd567),
    ("exec f32 sve256 packed t8", 0xe0e1160945ccd567),
    ("batch f32 sve256 packed t1", 0x900cc3c71e54d7c4),
    ("batch f32 sve256 packed t2", 0x900cc3c71e54d7c4),
    ("batch f32 sve256 packed t4", 0x900cc3c71e54d7c4),
    ("exec f32 sve512 model t1", 0xe0e1160945ccd567),
    ("exec f32 sve512 model t2", 0xe0e1160945ccd567),
    ("exec f32 sve512 model t4", 0xe0e1160945ccd567),
    ("exec f32 sve512 model t8", 0xe0e1160945ccd567),
    ("batch f32 sve512 model t1", 0x900cc3c71e54d7c4),
    ("batch f32 sve512 model t2", 0x900cc3c71e54d7c4),
    ("batch f32 sve512 model t4", 0x900cc3c71e54d7c4),
    ("exec f32 sve512 packed t1", 0xe0e1160945ccd567),
    ("exec f32 sve512 packed t2", 0xe0e1160945ccd567),
    ("exec f32 sve512 packed t4", 0xe0e1160945ccd567),
    ("exec f32 sve512 packed t8", 0xe0e1160945ccd567),
    ("batch f32 sve512 packed t1", 0x900cc3c71e54d7c4),
    ("batch f32 sve512 packed t2", 0x900cc3c71e54d7c4),
    ("batch f32 sve512 packed t4", 0x900cc3c71e54d7c4),
    ("exec f64 neon128 model t1", 0xcc95d9facdac0029),
    ("batch f64 neon128 model t1", 0x5bf0d7fb969bba79),
    ("exec f64 neon128 model t4", 0xcc95d9facdac0029),
    ("batch f64 neon128 model t4", 0x5bf0d7fb969bba79),
];

#[test]
fn outputs_match_the_walker_goldens() {
    let got = digests();
    let mismatched: Vec<_> = got
        .iter()
        .filter(|(label, h)| {
            GOLDEN
                .iter()
                .find(|(l, _)| l == label)
                .is_none_or(|(_, g)| g != h)
        })
        .collect();
    assert!(mismatched.is_empty(), "outputs changed: {mismatched:#?}");
    assert_eq!(got.len(), GOLDEN.len(), "configuration set changed");
}
