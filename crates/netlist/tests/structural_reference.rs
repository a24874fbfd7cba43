//! Differential tests: the structural-analysis engine (generic
//! ternary-enumeration SCOAP, Brandes betweenness, low-link
//! articulation points, Cooper–Harvey–Kennedy post-dominance) must
//! agree with independent brute-force references on random netlists.
//!
//! The SCOAP reference hand-codes the classic per-cell rules (the
//! published controllability/observability tables, extended with the
//! hold-path state slot for enable flops) and converges them by naive
//! whole-netlist sweeps — none of the engine's ternary enumeration or
//! SCC scheduling is shared. The centrality references recompute each
//! definition from first principles: betweenness by all-pairs
//! shortest-path counting, articulation by deleting each vertex and
//! recounting components, dominance by deleting each gate and
//! re-checking sink reachability.

use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::structural::{betweenness, gate_adjacency};
use fusa_netlist::{GateKind, Netlist, StructuralProfile, SCOAP_INF, SEQUENTIAL_STEP};
use proptest::prelude::*;

const INF: u32 = SCOAP_INF;

fn add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

fn add3(a: u32, b: u32, c: u32) -> u32 {
    add(add(a, b), c)
}

/// Classic SCOAP controllability rule of one cell: `(cc0, cc1)` of the
/// output before the step cost, from per-pin `(c0, c1)` costs. `q` is
/// the flop's own output cost (the hold-path state slot).
fn rule_controllability(kind: GateKind, c0: &[u32], c1: &[u32], q: (u32, u32)) -> (u32, u32) {
    let sum = |v: &[u32]| v.iter().fold(0u32, |a, &b| add(a, b));
    let min = |v: &[u32]| v.iter().copied().min().unwrap_or(INF);
    let (q0, q1) = q;
    match kind {
        GateKind::Tie0 => (0, INF),
        GateKind::Tie1 => (INF, 0),
        GateKind::Buf => (c0[0], c1[0]),
        GateKind::Inv => (c1[0], c0[0]),
        GateKind::And2 | GateKind::And3 | GateKind::And4 => (min(c0), sum(c1)),
        GateKind::Or2 | GateKind::Or3 | GateKind::Or4 => (sum(c0), min(c1)),
        GateKind::Nand2 | GateKind::Nand3 | GateKind::Nand4 => (sum(c1), min(c0)),
        GateKind::Nor2 | GateKind::Nor3 | GateKind::Nor4 => (min(c1), sum(c0)),
        GateKind::Xor2 => (
            add(c0[0], c0[1]).min(add(c1[0], c1[1])),
            add(c0[0], c1[1]).min(add(c1[0], c0[1])),
        ),
        GateKind::Xnor2 => (
            add(c0[0], c1[1]).min(add(c1[0], c0[1])),
            add(c0[0], c0[1]).min(add(c1[0], c1[1])),
        ),
        // Z = S ? B : A, inputs [A, B, S]. The third term in each min is
        // the S=X assignment: equal data pins force the output alone.
        GateKind::Mux2 => (
            add(c0[2], c0[0])
                .min(add(c1[2], c0[1]))
                .min(add(c0[0], c0[1])),
            add(c0[2], c1[0])
                .min(add(c1[2], c1[1]))
                .min(add(c1[0], c1[1])),
        ),
        // Z = (A & B) | C.
        GateKind::Ao21 => (add(c0[0].min(c0[1]), c0[2]), add(c1[0], c1[1]).min(c1[2])),
        // Z = (A & B) | (C & D).
        GateKind::Ao22 => (
            add(c0[0].min(c0[1]), c0[2].min(c0[3])),
            add(c1[0], c1[1]).min(add(c1[2], c1[3])),
        ),
        // Z = !((A & B) | C).
        GateKind::Aoi21 => (add(c1[0], c1[1]).min(c1[2]), add(c0[0].min(c0[1]), c0[2])),
        // Z = !((A & B) | (C & D)).
        GateKind::Aoi22 => (
            add(c1[0], c1[1]).min(add(c1[2], c1[3])),
            add(c0[0].min(c0[1]), c0[2].min(c0[3])),
        ),
        // Z = !((A | B) & C).
        GateKind::Oai21 => (add(c1[0].min(c1[1]), c1[2]), add(c0[0], c0[1]).min(c0[2])),
        // Z = !((A | B) & (C | D)).
        GateKind::Oai22 => (
            add(c1[0].min(c1[1]), c1[2].min(c1[3])),
            add(c0[0], c0[1]).min(add(c0[2], c0[3])),
        ),
        // Q' = D.
        GateKind::Dff => (c0[0], c1[0]),
        // Q' = R ? 0 : D — D=0 alone forces 0 (either reset branch
        // lands at 0), so R is left unpinned in that term.
        GateKind::Dffr => (c1[1].min(c0[0]), add(c0[1], c1[0])),
        // Q' = E ? D : Q.
        GateKind::Dffe => (
            add(c1[1], c0[0]).min(add(c0[1], q0)).min(add(c0[0], q0)),
            add(c1[1], c1[0]).min(add(c0[1], q1)).min(add(c1[0], q1)),
        ),
        // Q' = R ? 0 : (E ? D : Q), inputs [D, E, R]; reset dominates.
        GateKind::Dffre => (
            c1[2]
                .min(add(c0[0], c1[1]))
                .min(add(c0[0], q0))
                .min(add(c0[1], q0)),
            add3(c0[2], c1[1], c1[0])
                .min(add3(c0[2], c0[1], q1))
                .min(add3(c0[2], c1[0], q1)),
        ),
    }
}

/// Classic SCOAP sensitization cost of `pin`: the cheapest side-pin
/// assignment under which flipping the pin flips the output (the pin
/// itself is never charged). `INF` when the pin cannot be sensitized.
fn rule_sensitization(kind: GateKind, pin: usize, c0: &[u32], c1: &[u32], q: (u32, u32)) -> u32 {
    let others = |v: &[u32]| -> u32 {
        v.iter()
            .enumerate()
            .filter(|&(i, _)| i != pin)
            .fold(0u32, |a, (_, &b)| add(a, b))
    };
    let (q0, q1) = q;
    match kind {
        GateKind::Tie0 | GateKind::Tie1 => INF,
        GateKind::Buf | GateKind::Inv | GateKind::Dff => 0,
        GateKind::And2
        | GateKind::And3
        | GateKind::And4
        | GateKind::Nand2
        | GateKind::Nand3
        | GateKind::Nand4 => others(c1),
        GateKind::Or2
        | GateKind::Or3
        | GateKind::Or4
        | GateKind::Nor2
        | GateKind::Nor3
        | GateKind::Nor4 => others(c0),
        GateKind::Xor2 | GateKind::Xnor2 => {
            let side = 1 - pin;
            c0[side].min(c1[side])
        }
        GateKind::Mux2 => match pin {
            0 => c0[2],
            1 => c1[2],
            _ => add(c0[0], c1[1]).min(add(c1[0], c0[1])),
        },
        GateKind::Ao21 | GateKind::Aoi21 => match pin {
            0 => add(c1[1], c0[2]),
            1 => add(c1[0], c0[2]),
            _ => c0[0].min(c0[1]),
        },
        GateKind::Ao22 | GateKind::Aoi22 => match pin {
            0 => add(c1[1], c0[2].min(c0[3])),
            1 => add(c1[0], c0[2].min(c0[3])),
            2 => add(c1[3], c0[0].min(c0[1])),
            _ => add(c1[2], c0[0].min(c0[1])),
        },
        GateKind::Oai21 => match pin {
            0 => add(c0[1], c1[2]),
            1 => add(c0[0], c1[2]),
            _ => c1[0].min(c1[1]),
        },
        GateKind::Oai22 => match pin {
            0 => add(c0[1], c1[2].min(c1[3])),
            1 => add(c0[0], c1[2].min(c1[3])),
            2 => add(c0[3], c1[0].min(c1[1])),
            _ => add(c0[2], c1[0].min(c1[1])),
        },
        GateKind::Dffr => match pin {
            0 => c0[1],
            _ => c1[0],
        },
        GateKind::Dffe => match pin {
            0 => c1[1],
            _ => add(c1[0], q0).min(add(c0[0], q1)),
        },
        GateKind::Dffre => match pin {
            0 => add(c0[2], c1[1]),
            1 => add(c0[2], add(c1[0], q0).min(add(c0[0], q1))),
            _ => add(c1[1], c1[0]).min(add(c0[1], q1)).min(add(c1[0], q1)),
        },
    }
}

/// Per-net `(cc0, cc1, co)` by naive whole-netlist sweeps of the classic
/// rules until the fixpoint.
fn reference_scoap(netlist: &Netlist) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let nets = netlist.net_count();
    let mut cc0 = vec![INF; nets];
    let mut cc1 = vec![INF; nets];
    for &pi in netlist.primary_inputs() {
        cc0[pi.index()] = 1;
        cc1[pi.index()] = 1;
    }
    let pin_costs = |gate: &fusa_netlist::Gate, cc: &[u32]| -> Vec<u32> {
        gate.inputs.iter().map(|n| cc[n.index()]).collect()
    };
    let step_of = |kind: GateKind| {
        if kind.is_sequential() {
            SEQUENTIAL_STEP
        } else {
            1
        }
    };
    // Monotone non-increasing from INF, so sweeps terminate; the bound
    // only guards against a bug making the loop diverge.
    for sweep in 0.. {
        assert!(sweep < 4 * netlist.gate_count() + 8, "cc fixpoint diverged");
        let mut changed = false;
        for gate in netlist.gates() {
            let out = gate.output.index();
            let (r0, r1) = rule_controllability(
                gate.kind,
                &pin_costs(gate, &cc0),
                &pin_costs(gate, &cc1),
                (cc0[out], cc1[out]),
            );
            let (n0, n1) = (add(r0, step_of(gate.kind)), add(r1, step_of(gate.kind)));
            if n0 < cc0[out] || n1 < cc1[out] {
                cc0[out] = cc0[out].min(n0);
                cc1[out] = cc1[out].min(n1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut co = vec![INF; nets];
    for (_, net) in netlist.primary_outputs() {
        co[net.index()] = 0;
    }
    for sweep in 0.. {
        assert!(sweep < 4 * netlist.gate_count() + 8, "co fixpoint diverged");
        let mut changed = false;
        for gate in netlist.gates() {
            let co_out = co[gate.output.index()];
            if co_out == INF {
                continue;
            }
            let c0 = pin_costs(gate, &cc0);
            let c1 = pin_costs(gate, &cc1);
            let q = (cc0[gate.output.index()], cc1[gate.output.index()]);
            for (pin, net) in gate.inputs.iter().enumerate() {
                let sens = rule_sensitization(gate.kind, pin, &c0, &c1, q);
                let candidate = add3(co_out, sens, step_of(gate.kind));
                if candidate < co[net.index()] {
                    co[net.index()] = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (cc0, cc1, co)
}

/// All-pairs betweenness: one BFS per node for distances and path
/// counts, then the pair-dependency sum over every (source, target).
fn reference_betweenness(adjacency: &[Vec<u32>]) -> Vec<f64> {
    let n = adjacency.len();
    let mut dist = vec![vec![usize::MAX; n]; n];
    let mut sigma = vec![vec![0.0f64; n]; n];
    for s in 0..n {
        dist[s][s] = 0;
        sigma[s][s] = 1.0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &w in &adjacency[v] {
                let w = w as usize;
                if dist[s][w] == usize::MAX {
                    dist[s][w] = dist[s][v] + 1;
                    queue.push_back(w);
                }
                if dist[s][w] == dist[s][v] + 1 {
                    sigma[s][w] += sigma[s][v];
                }
            }
        }
    }
    let mut centrality = vec![0.0; n];
    for v in 0..n {
        for s in 0..n {
            if s == v || dist[s][v] == usize::MAX {
                continue;
            }
            for t in 0..n {
                if t == s || t == v || dist[v][t] == usize::MAX || dist[s][t] == usize::MAX {
                    continue;
                }
                if dist[s][v] + dist[v][t] == dist[s][t] {
                    centrality[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
                }
            }
        }
    }
    centrality
}

/// Undirected components over `keep`-marked vertices.
fn component_count(adjacency: &[Vec<u32>], keep: &[bool]) -> usize {
    let n = adjacency.len();
    let mut seen = vec![false; n];
    let mut components = 0;
    for start in 0..n {
        if !keep[start] || seen[start] {
            continue;
        }
        components += 1;
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            for &w in &adjacency[v] {
                let w = w as usize;
                if keep[w] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
    }
    components
}

/// Symmetrized, self-loop-free view of the gate graph.
fn undirected(adjacency: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adjacency.len();
    let mut und = vec![Vec::new(); n];
    for (v, succs) in adjacency.iter().enumerate() {
        for &w in succs {
            if w as usize != v {
                und[v].push(w);
                und[w as usize].push(v as u32);
            }
        }
    }
    for list in &mut und {
        list.sort_unstable();
        list.dedup();
    }
    und
}

/// Delete-and-recount articulation points.
fn reference_articulation(adjacency: &[Vec<u32>]) -> Vec<bool> {
    let und = undirected(adjacency);
    let n = und.len();
    let whole = component_count(&und, &vec![true; n]);
    (0..n)
        .map(|v| {
            let mut keep = vec![true; n];
            keep[v] = false;
            component_count(&und, &keep) > whole
        })
        .collect()
}

/// Delete-and-recheck post-dominance counts: `dominated[d]` is the
/// number of other gates that lose all paths to the virtual output sink
/// when `d` is removed.
fn reference_dominated(netlist: &Netlist, adjacency: &[Vec<u32>]) -> Vec<u32> {
    let n = adjacency.len();
    let sink = n;
    let mut aug: Vec<Vec<usize>> = adjacency
        .iter()
        .map(|succs| succs.iter().map(|&w| w as usize).collect())
        .collect();
    aug.push(Vec::new());
    for (_, net) in netlist.primary_outputs() {
        if let Some(fusa_netlist::Driver::Gate(g)) = netlist.net(*net).driver {
            aug[g.index()].push(sink);
        }
    }
    let reaches_sink = |from: usize, removed: Option<usize>| -> bool {
        let mut seen = vec![false; n + 1];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(v) = stack.pop() {
            if v == sink {
                return true;
            }
            for &w in &aug[v] {
                if Some(w) != removed && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        false
    };
    (0..n)
        .map(|d| {
            (0..n)
                .filter(|&v| v != d && reaches_sink(v, None) && !reaches_sink(v, Some(d)))
                .count() as u32
        })
        .collect()
}

fn random(seed: u64, num_gates: usize, sequential_fraction: f64) -> Netlist {
    random_netlist(&RandomNetlistConfig {
        num_inputs: 5,
        num_gates,
        sequential_fraction,
        num_outputs: 4,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The ternary-enumeration SCOAP engine reproduces the classic
    /// hand-coded per-cell rules on random sequential netlists, for all
    /// three of CC0/CC1/CO over every net.
    #[test]
    fn scoap_matches_classic_rules_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 20usize..80,
        sequential_fraction in 0.0f64..0.4,
    ) {
        let netlist = random(seed, num_gates, sequential_fraction);
        let profile = StructuralProfile::analyze(&netlist);
        let (cc0, cc1, co) = reference_scoap(&netlist);
        prop_assert_eq!(&profile.cc0, &cc0, "cc0 differs");
        prop_assert_eq!(&profile.cc1, &cc1, "cc1 differs");
        prop_assert_eq!(&profile.co, &co, "co differs");
    }

    /// Brandes betweenness equals the all-pairs path-counting
    /// definition; low-link articulation points equal delete-and-recount.
    #[test]
    fn centralities_match_brute_force_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 20usize..60,
        sequential_fraction in 0.0f64..0.4,
    ) {
        let netlist = random(seed, num_gates, sequential_fraction);
        let profile = StructuralProfile::analyze(&netlist);
        let adjacency = gate_adjacency(&netlist);
        let expect_betweenness = reference_betweenness(&adjacency);
        for (g, (got, want)) in profile.betweenness.iter().zip(&expect_betweenness).enumerate() {
            prop_assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "betweenness[{}]: engine {} vs reference {}", g, got, want
            );
        }
        prop_assert_eq!(
            &profile.articulation,
            &reference_articulation(&adjacency),
            "articulation differs"
        );
    }

    /// Post-dominance counts equal delete-and-recheck reachability to
    /// the virtual output sink.
    #[test]
    fn dominance_matches_brute_force_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 20usize..60,
        sequential_fraction in 0.0f64..0.4,
    ) {
        let netlist = random(seed, num_gates, sequential_fraction);
        let profile = StructuralProfile::analyze(&netlist);
        let adjacency = gate_adjacency(&netlist);
        prop_assert_eq!(
            &profile.dominated,
            &reference_dominated(&netlist, &adjacency),
            "dominated differs"
        );
    }
}

/// The built-in designs, checked against the same references once each:
/// the proptest covers the space, this pins the real designs CI ships.
#[test]
fn builtin_designs_match_references() {
    for netlist in fusa_netlist::designs::all_designs() {
        let profile = StructuralProfile::analyze(&netlist);
        let (cc0, cc1, co) = reference_scoap(&netlist);
        assert_eq!(profile.cc0, cc0, "{}: cc0", netlist.name());
        assert_eq!(profile.cc1, cc1, "{}: cc1", netlist.name());
        assert_eq!(profile.co, co, "{}: co", netlist.name());
        let adjacency = gate_adjacency(&netlist);
        assert_eq!(
            profile.articulation,
            reference_articulation(&adjacency),
            "{}: articulation",
            netlist.name()
        );
        assert_eq!(
            profile.dominated,
            reference_dominated(&netlist, &adjacency),
            "{}: dominated",
            netlist.name()
        );
        let expect = reference_betweenness(&adjacency);
        let engine = betweenness(&adjacency);
        for (g, (got, want)) in engine.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "{}: betweenness[{g}] engine {got} vs reference {want}",
                netlist.name()
            );
        }
    }
}

/// Brandes betweenness of every built-in, pinned bit-for-bit: the digest
/// covers the raw `f64` bits in design and gate order, so a change to
/// the accumulation order (not just to the values beyond a tolerance)
/// shows up here. `rank.csv` and the structural feature channels read
/// these exact floats.
#[test]
fn builtin_betweenness_is_bit_identical() {
    let mut bits = Vec::new();
    for netlist in fusa_netlist::designs::all_designs() {
        for value in betweenness(&gate_adjacency(&netlist)) {
            bits.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    assert_eq!(fusa_obs::fnv1a64_hex(&bits), "fnv1a64:d6bec20196d2ece2");
}

/// Golden structural summaries of the built-ins: a coarse fingerprint
/// (finite-cost counts, articulation count, dominance mass) that moves
/// only when the SCOAP rules or graph passes themselves change.
#[test]
fn builtin_structural_goldens() {
    let golden = [
        ("sdram_ctrl", 23usize, 35usize, 2853u64),
        ("or1200_if", 4, 91, 1477),
        ("or1200_icfsm", 4, 18, 904),
        ("uart_ctrl", 4, 17, 1247),
    ];
    for (name, unobservable_nets, articulation_points, dominated_sum) in golden {
        let netlist = fusa_netlist::designs::all_designs()
            .into_iter()
            .find(|n| n.name() == name)
            .expect("built-in design");
        let profile = StructuralProfile::analyze(&netlist);
        let infinite = profile.co.iter().filter(|&&c| c == SCOAP_INF).count();
        let cuts = profile.articulation.iter().filter(|&&a| a).count();
        let mass: u64 = profile.dominated.iter().map(|&d| u64::from(d)).sum();
        assert_eq!(
            (infinite, cuts, mass),
            (unobservable_nets, articulation_points, dominated_sum),
            "{name}: structural golden drifted"
        );
    }
}
