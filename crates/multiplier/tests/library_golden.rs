//! Golden digests of the builtin libraries: every entry's name,
//! transistor count, error-profile bits and full LUT, folded into one
//! u64 per library. The literals pin the exact f64 fold order of the
//! exhaustive error sweep and every product the LUT serves; any
//! change to either moves a digest.

use carma_ga::Nsga2Config;
use carma_multiplier::{LibraryConfig, LutMultiplier, Multiplier, MultiplierLibrary};

/// FNV-1a 64 folded over a stream of byte slices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(lib: &MultiplierLibrary) -> u64 {
    let mut h = Fnv::new();
    let side = 1u32 << lib.width();
    for e in lib.entries() {
        h.bytes(e.name.as_bytes());
        h.u64(e.transistors());
        let p = &e.profile;
        h.u64(u64::from(p.width));
        for x in [p.error_rate, p.med, p.nmed, p.mred, p.bias, p.variance] {
            h.u64(x.to_bits());
        }
        h.u64(p.wce);
        let lut = LutMultiplier::compile(&e.circuit);
        for b in 0..side {
            for a in 0..side {
                h.u64(lut.multiply(a, b));
            }
        }
    }
    h.0
}

#[test]
fn ladder_libraries_are_pinned() {
    assert_eq!(
        digest(&MultiplierLibrary::truncation_ladder(8, 3)),
        0x4338_481d_fa8e_429a
    );
    assert_eq!(
        digest(&MultiplierLibrary::truncation_ladder(8, 4)),
        0xeb25_e797_61dd_51fa
    );
    assert_eq!(
        digest(&MultiplierLibrary::truncation_ladder(4, 2)),
        0xc1bf_4c9d_f2cf_9a1f
    );
    assert_eq!(
        digest(&MultiplierLibrary::truncation_ladder(2, 1)),
        0xe0d4_8178_fb6f_7218
    );
    assert_eq!(
        digest(&MultiplierLibrary::truncation_ladder(1, 1)),
        0x1f57_d8ef_c346_83f0
    );
}

#[test]
fn classic_libraries_are_pinned() {
    assert_eq!(
        digest(&MultiplierLibrary::classic_families(8, 3)),
        0x6325_c8f1_7424_b0e4
    );
    assert_eq!(
        digest(&MultiplierLibrary::classic_families(8, 4)),
        0x766b_3ff8_bd2b_e4e6
    );
}

/// The quick-scale evolved library (NSGA-II 16 × 6, seed `0xFA31`).
#[test]
fn quick_evolved_library_is_pinned() {
    let lib = MultiplierLibrary::evolve(LibraryConfig {
        nsga: Nsga2Config::default()
            .with_population(16)
            .with_generations(6)
            .with_seed(0xFA31),
        ..LibraryConfig::default()
    });
    assert_eq!(digest(&lib), 0x16ae_952c_2178_4752);
}
