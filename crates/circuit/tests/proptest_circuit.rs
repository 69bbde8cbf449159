//! Property-based tests for netlists, the parser, and MNA assembly.

use mpvl_circuit::generators::{
    embed_with_drivers, h_tree, interconnect, package, peec, random_lc, random_rc, random_rl,
    rc_ladder, rc_line, HTreeParams, InterconnectParams, PackageParams, PeecParams,
};
use mpvl_circuit::{parse_spice, to_spice, Circuit, CircuitClass, MnaSystem};
use mpvl_la::Complex64;
use mpvl_testkit::prop::check;
use mpvl_testkit::{prop_assert, prop_assert_eq};

fn spice_roundtrip_preserves_z_at(seed: u64) -> Result<(), String> {
    let ckt = random_rc(seed, 12, 2);
    let text = to_spice(&ckt);
    let (ckt2, _) = parse_spice(&text).expect("own output parses");
    let s1 = MnaSystem::assemble(&ckt).unwrap();
    let s2 = MnaSystem::assemble(&ckt2).unwrap();
    let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
    let z1 = s1.dense_z(s).unwrap();
    let z2 = s2.dense_z(s).unwrap();
    for i in 0..2 {
        for j in 0..2 {
            let rel = (z1[(i, j)] - z2[(i, j)]).abs() / z1[(i, j)].abs().max(1e-300);
            prop_assert!(rel < 1e-12, "({i},{j}): {rel}");
        }
    }
    Ok(())
}

#[test]
fn spice_roundtrip_preserves_z() {
    check("spice_roundtrip_preserves_z", 32, 0u64..1000, |&seed| {
        spice_roundtrip_preserves_z_at(seed)
    });
}

/// Regression pinned from the retired `proptest_circuit.proptest-regressions`
/// file ("shrinks to seed = 479"): the SPICE round-trip once lost
/// precision on this circuit's element values. Must stay green forever.
#[test]
fn regression_spice_roundtrip_seed_479() {
    spice_roundtrip_preserves_z_at(479).unwrap();
}

/// Relative Frobenius distance between two `Z` matrices.
fn z_distance(a: &mpvl_la::Mat<Complex64>, b: &mpvl_la::Mat<Complex64>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            num += (a[(i, j)] - b[(i, j)]).abs().powi(2);
            den += a[(i, j)].abs().powi(2);
        }
    }
    (num / den).sqrt()
}

#[test]
fn every_generator_roundtrips_through_spice() {
    let small_interconnect = InterconnectParams {
        wires: 3,
        coupling_reach: 2,
        ..InterconnectParams::default()
    };
    let small_package = PackageParams {
        pins: 6,
        signal_pins: vec![0, 1, 3],
        sections: 4,
        ..PackageParams::default()
    };
    let circuits: Vec<(&str, Circuit)> = vec![
        ("rc_ladder", rc_ladder(40, 10.0, 1e-12)),
        ("rc_line", rc_line(30, 25.0, 2e-13)),
        ("interconnect", interconnect(&small_interconnect)),
        (
            "embed_with_drivers",
            embed_with_drivers(&interconnect(&small_interconnect), 50.0),
        ),
        ("package", package(&small_package)),
        ("peec", peec(&PeecParams::default()).circuit),
        ("h_tree", h_tree(&HTreeParams::default())),
        ("random_rc", random_rc(3, 12, 2)),
        ("random_rl", random_rl(3, 12, 2)),
        ("random_lc", random_lc(3, 12, 2)),
    ];
    let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
    for (name, ckt) in circuits {
        let text = to_spice(&ckt);
        let (parsed, _) = parse_spice(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(parsed.element_counts(), ckt.element_counts(), "{name}");
        assert_eq!(parsed.num_ports(), ckt.num_ports(), "{name}");
        for (orig, back) in ckt.ports().iter().zip(parsed.ports()) {
            let expect = if orig.name.starts_with(['P', 'p']) {
                orig.name.clone()
            } else {
                format!("P{}", orig.name)
            };
            assert_eq!(back.name, expect, "{name}");
        }
        let z1 = MnaSystem::assemble(&ckt).unwrap().dense_z(s).unwrap();
        let z2 = MnaSystem::assemble(&parsed).unwrap().dense_z(s).unwrap();
        let d = z_distance(&z1, &z2);
        assert!(d < 1e-12, "{name}: Z moved by {d:e}");
        // A parsed circuit's ports already carry their `P`, so writing
        // it out again is a fixed point: the canonical text (and every
        // registry key hashed from it) does not drift on re-ingest.
        let canonical = to_spice(&parsed);
        let (again, _) = parse_spice(&canonical).unwrap();
        assert_eq!(to_spice(&again), canonical, "{name}");
    }
}

#[test]
fn mna_matrices_always_symmetric() {
    check(
        "mna_matrices_always_symmetric",
        32,
        (0u64..1000, 0u8..3),
        |&(seed, class)| {
            let ckt = match class {
                0 => random_rc(seed, 15, 2),
                1 => random_rl(seed, 12, 2),
                _ => random_lc(seed, 12, 2),
            };
            let sys = MnaSystem::assemble(&ckt).unwrap();
            prop_assert!(sys.g.asymmetry() < 1e-15);
            prop_assert!(sys.c.asymmetry() < 1e-15);
            // Special forms have PSD matrices: verify via eigenvalues.
            let eg = mpvl_la::sym_eigen(&sys.g.to_dense()).unwrap();
            let ec = mpvl_la::sym_eigen(&sys.c.to_dense()).unwrap();
            let gmin = eg.values.first().copied().unwrap_or(0.0);
            let cmin = ec.values.first().copied().unwrap_or(0.0);
            let gscale = eg.values.last().copied().unwrap_or(1.0).abs().max(1e-300);
            let cscale = ec.values.last().copied().unwrap_or(1.0).abs().max(1e-300);
            prop_assert!(gmin >= -1e-12 * gscale, "G not PSD: {gmin}");
            prop_assert!(cmin >= -1e-12 * cscale, "C not PSD: {cmin}");
            Ok(())
        },
    );
}

#[test]
fn exact_z_is_reciprocal() {
    check("exact_z_is_reciprocal", 32, 0u64..1000, |&seed| {
        // Z must be symmetric (reciprocity of passive networks).
        let ckt = random_rc(seed, 14, 3);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 3e8);
        let z = sys.dense_z(s).unwrap();
        for i in 0..3 {
            for j in 0..i {
                let rel = (z[(i, j)] - z[(j, i)]).abs() / z[(i, j)].abs().max(1e-300);
                prop_assert!(rel < 1e-10);
            }
        }
        Ok(())
    });
}

#[test]
fn special_form_matches_general_form() {
    check(
        "special_form_matches_general_form",
        32,
        (0u64..1000, 0u8..3),
        |&(seed, class)| {
            let ckt = match class {
                0 => random_rc(seed, 10, 2),
                1 => random_rl(seed, 10, 2),
                _ => random_lc(seed, 10, 2),
            };
            let special = MnaSystem::assemble(&ckt).unwrap();
            let general = MnaSystem::assemble_general(&ckt).unwrap();
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 4e8);
            let zs = special.dense_z(s).unwrap();
            let zg = general.dense_z(s).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    let scale = zg[(i, j)].abs().max(1e-6);
                    prop_assert!(
                        (zs[(i, j)] - zg[(i, j)]).abs() / scale < 1e-8,
                        "class {class} entry ({i},{j}): {} vs {}",
                        zs[(i, j)],
                        zg[(i, j)]
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn classification_is_consistent() {
    check("classification_is_consistent", 32, 0u64..1000, |&seed| {
        prop_assert_eq!(random_rc(seed, 8, 1).classify(), CircuitClass::Rc);
        prop_assert_eq!(random_rl(seed, 8, 1).classify(), CircuitClass::Rl);
        prop_assert_eq!(random_lc(seed, 8, 1).classify(), CircuitClass::Lc);
        Ok(())
    });
}

#[test]
fn dense_z_passive_real_part() {
    check("dense_z_passive_real_part", 32, 0u64..500, |&seed| {
        // Re(Z(jw)) must be PSD for a passive network; check the diagonal.
        let ckt = random_rc(seed, 12, 2);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        for f in [1e6f64, 1e8, 1e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z = sys.dense_z(s).unwrap();
            for i in 0..2 {
                prop_assert!(z[(i, i)].re >= -1e-9, "Re Z{i}{i} = {}", z[(i, i)].re);
            }
        }
        Ok(())
    });
}
