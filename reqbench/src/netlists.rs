//! The circuits the benchmark submits, written as SPICE text.
//!
//! Every netlist is built with the repository's generators (or, for the
//! power-grid mesh, here), then written by [`write_spice`], which applies
//! the request's seeded element-value jitter and writes `P` port cards the
//! way a user would. The service only ever sees this text.

use mpvl_circuit::generators::{
    h_tree, interconnect, package, peec, rc_ladder, HTreeParams, InterconnectParams, PackageParams,
    PeecParams,
};
use mpvl_circuit::{Circuit, Element, GROUND};
use mpvl_testkit::SmallRng;
use std::fmt::Write as _;

/// The circuit classes of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// RF package, 64 pins × 8 RLC sections, 16 ports (paper §7.2).
    Package,
    /// 17 coupled RC wires × 79 segments, 17 ports (paper §7.3).
    Interconnect,
    /// PEEC LC model, 100 cells, one port (paper §7.1).
    Peec,
    /// Ungrounded RC ladder with this many stages, one port.
    Ladder(usize),
    /// RC clock h-tree of this depth, root plus four sink ports.
    HTree(usize),
    /// Grounded 2-D RC power-grid mesh with this many nodes per side.
    Mesh(usize),
}

impl Shape {
    /// Short label used in the report.
    pub fn label(self) -> String {
        match self {
            Shape::Package => "package".into(),
            Shape::Interconnect => "interconnect".into(),
            Shape::Peec => "peec".into(),
            Shape::Ladder(n) => format!("ladder{n}"),
            Shape::HTree(d) => format!("htree{d}"),
            Shape::Mesh(s) => format!("mesh{s}"),
        }
    }

    /// The circuit before jitter.
    pub fn circuit(self) -> Circuit {
        match self {
            Shape::Package => package(&PackageParams::default()),
            Shape::Interconnect => interconnect(&InterconnectParams::default()),
            Shape::Peec => peec(&PeecParams::default()).circuit,
            // Same total R and C at every length, so every ladder has its
            // poles in the same band.
            Shape::Ladder(n) => rc_ladder(n, 100.0 * 200.0 / n as f64, 1e-12 * 200.0 / n as f64),
            Shape::HTree(depth) => h_tree(&HTreeParams {
                depth,
                ..HTreeParams::default()
            }),
            Shape::Mesh(side) => power_grid(side),
        }
    }
}

/// A grounded `side × side` RC power-grid mesh: 0.5 Ω segments, 10 fF
/// per node to ground, a 0.1 Ω supply pad every 10 nodes in each
/// direction, and four load ports spread over the grid.
pub fn power_grid(side: usize) -> Circuit {
    assert!(side >= 2, "mesh needs at least 2x2 nodes");
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..side * side).map(|_| ckt.add_node()).collect();
    let at = |r: usize, c: usize| nodes[r * side + c];
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                ckt.add_resistor(&format!("Rh{r}_{c}"), at(r, c), at(r, c + 1), 0.5);
            }
            if r + 1 < side {
                ckt.add_resistor(&format!("Rv{r}_{c}"), at(r, c), at(r + 1, c), 0.5);
            }
            ckt.add_capacitor(&format!("C{r}_{c}"), at(r, c), GROUND, 10e-15);
            if r % 10 == 5 && c % 10 == 5 {
                ckt.add_resistor(&format!("Rpad{r}_{c}"), at(r, c), GROUND, 0.1);
            }
        }
    }
    let q = side / 4;
    for (k, (r, c)) in [
        (q, q),
        (q, side - 1 - q),
        (side - 1 - q, q),
        (side / 2, side / 2),
    ]
    .into_iter()
    .enumerate()
    {
        ckt.add_port(&format!("load{k}"), at(r, c), GROUND);
    }
    ckt
}

/// Writes `ckt` as SPICE text, scaling every R, L and C value by an
/// independent factor in `1 ± jitter` drawn from `rng`. Coupling
/// coefficients are kept, so mutual-inductance matrices stay positive
/// definite.
///
/// Ports are written as `P` cards: a port whose name does not start
/// with `P` gets the prefix. (The library's own `to_spice` writes such
/// names bare, and its parser rejects them; see NOTES.md.)
pub fn write_spice(ckt: &Circuit, rng: &mut SmallRng, jitter: f64) -> String {
    let mut out = String::with_capacity(48 * ckt.elements().len() + 64);
    let node = |n: usize| {
        if n == GROUND {
            "0".to_string()
        } else {
            format!("n{n}")
        }
    };
    let mut scaled = |v: f64| v * (1.0 + jitter * (2.0 * rng.unit_f64() - 1.0));
    out.push_str("* written by reqbench\n");
    for e in ckt.elements() {
        let line = match e {
            Element::Resistor { name, a, b, ohms } => {
                format!("{name} {} {} {:e}", node(*a), node(*b), scaled(*ohms))
            }
            Element::Capacitor { name, a, b, farads } => {
                format!("{name} {} {} {:e}", node(*a), node(*b), scaled(*farads))
            }
            Element::Inductor {
                name,
                a,
                b,
                henries,
            } => format!("{name} {} {} {:e}", node(*a), node(*b), scaled(*henries)),
            Element::Mutual { name, l1, l2, k } => format!("{name} {l1} {l2} {k:e}"),
            Element::Vccs { .. } => unreachable!("the benchmark's circuits are passive"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    for p in ckt.ports() {
        let prefix = if p.name.starts_with(['P', 'p']) {
            ""
        } else {
            "P"
        };
        let _ = writeln!(out, "{prefix}{} {} {}", p.name, node(p.plus), node(p.minus));
    }
    out.push_str(".end\n");
    out
}
