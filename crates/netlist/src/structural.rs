//! Simulation-free structural criticality analysis over the gate graph.
//!
//! Two families of static measures, computed without a single simulated
//! cycle:
//!
//! * **SCOAP-style testability** — controllability `CC0`/`CC1` (cost of
//!   driving a net to 0/1 from the primary inputs) propagated forward,
//!   and observability `CO` (cost of sensitizing a net to a primary
//!   output) propagated backward. The propagation rules are derived
//!   *generically* from each cell's Boolean function
//!   ([`GateKind::eval_bool`]) by enumerating ternary pin assignments:
//!   an assignment pins some pins to 0/1 and leaves the rest don't-care,
//!   and is valid when every completion of the don't-cares forces the
//!   same output. Don't-care pins are not charged, which reproduces the
//!   classic per-cell SCOAP tables (e.g. `CC1(OR) = min(CC1 inputs) + 1`)
//!   without a hand-written rule per kind. Sequential cells charge
//!   [`SEQUENTIAL_STEP`] instead of 1, making both measures sequential
//!   depth-aware; a flip-flop's current state participates as an extra
//!   ternary slot whose cost is the flop's own output net (resolved by
//!   the fixpoint).
//!
//! * **Graph structure** — articulation points of the undirected gate
//!   graph (single points whose removal disconnects logic) and
//!   post-dominator counts (gates every path from some cone must cross
//!   to reach an output).
//!
//! * **Graph centralities** — Brandes betweenness over the directed gate
//!   graph (fanout convergence corridors) and PageRank (influence flow).
//!
//! The first two families are near-linear and make up the
//! [`TestabilityProfile`] the linter and the fault-list filter read.
//! Exact betweenness costs O(V·E), so only [`StructuralProfile`], which
//! adds the centralities, pays for it; `fusa rank` and the structural
//! feature channels are its only readers.
//!
//! Fixpoint scheduling reuses the one Tarjan SCC implementation in
//! [`crate::topo::strongly_connected_components`]: components are
//! processed in condensation order (sources first for controllability,
//! sinks first for observability) with a worklist inside each
//! non-trivial component, so acyclic regions relax exactly once.

use crate::gate::{GateId, GateKind};
use crate::netlist::{Driver, Netlist};
use crate::topo::strongly_connected_components;
use std::collections::VecDeque;

/// Sentinel for an unachievable SCOAP goal: a value no input assignment
/// can force, or a fault effect no assignment can sensitize to an
/// output.
pub const SCOAP_INF: u32 = u32::MAX;

/// SCOAP step cost of passing through a combinational cell.
pub const COMB_STEP: u32 = 1;

/// SCOAP step cost of passing through a sequential cell. Controlling or
/// observing through a flip-flop takes a clock cycle; weighting it
/// above [`COMB_STEP`] makes sequential depth dominate combinational
/// depth in the testability grading.
pub const SEQUENTIAL_STEP: u32 = 10;

/// PageRank damping factor (the standard 0.85).
const PAGERANK_DAMPING: f64 = 0.85;

/// The near-linear structural measures of one design: SCOAP
/// testability, articulation points and post-dominance.
///
/// SCOAP vectors are indexed by [`crate::NetId`]; graph vectors by
/// [`GateId`]. Use the `gate_*` accessors to read a gate's testability
/// through its output net.
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityProfile {
    /// Per-net SCOAP 0-controllability.
    pub cc0: Vec<u32>,
    /// Per-net SCOAP 1-controllability.
    pub cc1: Vec<u32>,
    /// Per-net SCOAP observability.
    pub co: Vec<u32>,
    /// Per-gate articulation flag on the undirected gate graph: removing
    /// the gate disconnects previously connected logic.
    pub articulation: Vec<bool>,
    /// Per-gate post-dominance count: how many other gates' every path
    /// to a primary output passes through this gate.
    pub dominated: Vec<u32>,
}

impl TestabilityProfile {
    /// Computes the near-linear measures for `netlist`.
    pub fn analyze(netlist: &Netlist) -> TestabilityProfile {
        TestabilityProfile::with_adjacency(netlist, &gate_adjacency(netlist))
    }

    fn with_adjacency(netlist: &Netlist, adjacency: &[Vec<u32>]) -> TestabilityProfile {
        let components = strongly_connected_components(adjacency);
        let mut comp_of = vec![0u32; netlist.gate_count()];
        for (ci, component) in components.iter().enumerate() {
            for &g in component {
                comp_of[g as usize] = ci as u32;
            }
        }
        let (cc0, cc1) = controllability(netlist, &components, &comp_of);
        let co = observability(netlist, &cc0, &cc1, &components, &comp_of);
        TestabilityProfile {
            cc0,
            cc1,
            co,
            articulation: articulation_points(&undirected(adjacency)),
            dominated: post_dominance(netlist, adjacency),
        }
    }

    /// SCOAP 0-controllability of the gate's output net.
    pub fn gate_cc0(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.cc0[netlist.gate(gate).output.index()]
    }

    /// SCOAP 1-controllability of the gate's output net.
    pub fn gate_cc1(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.cc1[netlist.gate(gate).output.index()]
    }

    /// SCOAP observability of the gate's output net.
    pub fn gate_co(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.co[netlist.gate(gate).output.index()]
    }

    /// Combined controllability difficulty of a gate: the harder of its
    /// two stuck-at activation costs (`max(CC0, CC1)` of the output).
    pub fn gate_control_difficulty(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.gate_cc0(netlist, gate)
            .max(self.gate_cc1(netlist, gate))
    }
}

/// All static structural measures of one design: the
/// [`TestabilityProfile`] fields plus the graph centralities.
///
/// SCOAP vectors are indexed by [`crate::NetId`]; centrality vectors by
/// [`GateId`]. Use the `gate_*` accessors to read a gate's testability
/// through its output net.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralProfile {
    /// Per-net SCOAP 0-controllability.
    pub cc0: Vec<u32>,
    /// Per-net SCOAP 1-controllability.
    pub cc1: Vec<u32>,
    /// Per-net SCOAP observability.
    pub co: Vec<u32>,
    /// Per-gate Brandes betweenness over the directed gate graph
    /// (unnormalized shortest-path pair counts).
    pub betweenness: Vec<f64>,
    /// Per-gate PageRank over the directed gate graph (sums to 1).
    pub pagerank: Vec<f64>,
    /// Per-gate articulation flag on the undirected gate graph: removing
    /// the gate disconnects previously connected logic.
    pub articulation: Vec<bool>,
    /// Per-gate post-dominance count: how many other gates' every path
    /// to a primary output passes through this gate.
    pub dominated: Vec<u32>,
}

impl StructuralProfile {
    /// Computes every structural measure for `netlist`, including the
    /// O(V·E) exact betweenness.
    pub fn analyze(netlist: &Netlist) -> StructuralProfile {
        let adjacency = gate_adjacency(netlist);
        let TestabilityProfile {
            cc0,
            cc1,
            co,
            articulation,
            dominated,
        } = TestabilityProfile::with_adjacency(netlist, &adjacency);
        let (betweenness, pagerank) = fusa_obs::global().time("structural.centralities", || {
            (betweenness(&adjacency), pagerank(&adjacency))
        });
        StructuralProfile {
            cc0,
            cc1,
            co,
            betweenness,
            pagerank,
            articulation,
            dominated,
        }
    }

    /// SCOAP 0-controllability of the gate's output net.
    pub fn gate_cc0(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.cc0[netlist.gate(gate).output.index()]
    }

    /// SCOAP 1-controllability of the gate's output net.
    pub fn gate_cc1(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.cc1[netlist.gate(gate).output.index()]
    }

    /// SCOAP observability of the gate's output net.
    pub fn gate_co(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.co[netlist.gate(gate).output.index()]
    }

    /// Combined controllability difficulty of a gate: the harder of its
    /// two stuck-at activation costs (`max(CC0, CC1)` of the output).
    pub fn gate_control_difficulty(&self, netlist: &Netlist, gate: GateId) -> u32 {
        self.gate_cc0(netlist, gate)
            .max(self.gate_cc1(netlist, gate))
    }
}

/// Compresses a SCOAP cost into a bounded feature/score value:
/// `ln(1 + cost)` with [`SCOAP_INF`] capped so infinity stays finite
/// (and strictly above every realistic finite cost).
pub fn cost_to_feature(cost: u32) -> f64 {
    const CAP: u32 = 1 << 20;
    f64::from(cost.min(CAP) + 1).ln()
}

/// The directed gate graph: node `g`'s successors are the gates reading
/// `g`'s output net, deduplicated and sorted.
pub fn gate_adjacency(netlist: &Netlist) -> Vec<Vec<u32>> {
    (0..netlist.gate_count())
        .map(|i| {
            let mut successors: Vec<u32> = netlist
                .fanout_of_gate(GateId(i as u32))
                .iter()
                .map(|g| g.0)
                .collect();
            successors.sort_unstable();
            successors.dedup();
            successors
        })
        .collect()
}

/// Undirected skeleton of a directed adjacency list: symmetrized,
/// deduplicated, self-loops dropped.
fn undirected(adjacency: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut undirected = vec![Vec::new(); adjacency.len()];
    for (v, successors) in adjacency.iter().enumerate() {
        for &w in successors {
            if w as usize != v {
                undirected[v].push(w);
                undirected[w as usize].push(v as u32);
            }
        }
    }
    for neighbors in &mut undirected {
        neighbors.sort_unstable();
        neighbors.dedup();
    }
    undirected
}

/// Controllability cost of one ternary slot (a pin, or a flop's current
/// state): the cost of driving it to 0 or to 1.
#[derive(Debug, Clone, Copy)]
struct SlotCost {
    zero: u32,
    one: u32,
}

impl SlotCost {
    fn of(self, value: bool) -> u32 {
        if value {
            self.one
        } else {
            self.zero
        }
    }
}

/// Evaluates a cell over its ternary slots' completion: for sequential
/// kinds the last slot is the current state `q`.
fn eval_slots(kind: GateKind, bits: &[bool]) -> bool {
    if kind.is_sequential() {
        let (inputs, q) = bits.split_at(bits.len() - 1);
        kind.eval_bool(inputs, q[0])
    } else {
        kind.eval_bool(bits, false)
    }
}

/// Calls `f` for every ternary assignment over `slots` positions
/// (`None` = don't-care).
fn for_each_ternary(slots: usize, mut f: impl FnMut(&[Option<bool>])) {
    let mut assignment: Vec<Option<bool>> = vec![None; slots];
    for code in 0..3usize.pow(slots as u32) {
        let mut rest = code;
        for slot in assignment.iter_mut() {
            *slot = match rest % 3 {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            };
            rest /= 3;
        }
        f(&assignment);
    }
}

/// Output value forced by `assignment` across every completion of its
/// don't-care slots, or `None` when completions disagree.
fn forced_output(kind: GateKind, assignment: &[Option<bool>]) -> Option<bool> {
    let free: Vec<usize> = (0..assignment.len())
        .filter(|&i| assignment[i].is_none())
        .collect();
    let mut bits: Vec<bool> = assignment.iter().map(|t| t.unwrap_or(false)).collect();
    let mut result = None;
    for case in 0..(1u32 << free.len()) {
        for (bit, &slot) in free.iter().enumerate() {
            bits[slot] = case & (1 << bit) != 0;
        }
        let out = eval_slots(kind, &bits);
        match result {
            None => result = Some(out),
            Some(prev) if prev != out => return None,
            _ => {}
        }
    }
    result
}

/// Saturating sum of the charged (pinned) slots of a ternary
/// assignment.
fn charged_cost(assignment: &[Option<bool>], costs: &[SlotCost]) -> u32 {
    assignment
        .iter()
        .zip(costs)
        .filter_map(|(&trit, &cost)| trit.map(|value| cost.of(value)))
        .fold(0u32, u32::saturating_add)
}

/// SCOAP controllability rule of one cell: the cheapest valid ternary
/// assignment forcing the output to 0 and to 1, plus the step cost.
fn output_controllability(kind: GateKind, costs: &[SlotCost]) -> (u32, u32) {
    let step = if kind.is_sequential() {
        SEQUENTIAL_STEP
    } else {
        COMB_STEP
    };
    let mut best = [SCOAP_INF, SCOAP_INF];
    for_each_ternary(costs.len(), |assignment| {
        if let Some(out) = forced_output(kind, assignment) {
            let cost = charged_cost(assignment, costs);
            if cost != SCOAP_INF {
                let slot = usize::from(out);
                best[slot] = best[slot].min(cost.saturating_add(step));
            }
        }
    });
    (best[0], best[1])
}

/// SCOAP observability rule of one pin: the cheapest side assignment
/// under which flipping the pin provably flips the output, plus the
/// output's observability and the step cost.
fn pin_observability(kind: GateKind, costs: &[SlotCost], pin: usize, co_out: u32) -> u32 {
    if co_out == SCOAP_INF {
        return SCOAP_INF;
    }
    let step = if kind.is_sequential() {
        SEQUENTIAL_STEP
    } else {
        COMB_STEP
    };
    let others: Vec<usize> = (0..costs.len()).filter(|&i| i != pin).collect();
    let mut best = SCOAP_INF;
    for_each_ternary(others.len(), |side| {
        let mut assignment: Vec<Option<bool>> = vec![None; costs.len()];
        for (&slot, &trit) in others.iter().zip(side) {
            assignment[slot] = trit;
        }
        assignment[pin] = Some(false);
        let low = forced_output(kind, &assignment);
        assignment[pin] = Some(true);
        let high = forced_output(kind, &assignment);
        if let (Some(b0), Some(b1)) = (low, high) {
            if b0 != b1 {
                assignment[pin] = None; // the pin itself is not charged
                let cost = charged_cost(&assignment, costs);
                if cost != SCOAP_INF {
                    best = best.min(cost.saturating_add(co_out).saturating_add(step));
                }
            }
        }
    });
    best
}

/// The ternary cost slots of a gate: one per pin, plus the flop's own
/// output net as the current-state slot for sequential kinds.
fn slot_costs(netlist: &Netlist, gate: usize, cc0: &[u32], cc1: &[u32]) -> Vec<SlotCost> {
    let g = &netlist.gates()[gate];
    let mut costs: Vec<SlotCost> = g
        .inputs
        .iter()
        .map(|n| SlotCost {
            zero: cc0[n.index()],
            one: cc1[n.index()],
        })
        .collect();
    if g.kind.is_sequential() {
        costs.push(SlotCost {
            zero: cc0[g.output.index()],
            one: cc1[g.output.index()],
        });
    }
    costs
}

/// Forward min-cost fixpoint for CC0/CC1 over all nets, scheduled by
/// the SCC condensation (sources first); a worklist inside each
/// component converges flop-coupled loops.
fn controllability(
    netlist: &Netlist,
    components: &[Vec<u32>],
    comp_of: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let mut cc0 = vec![SCOAP_INF; netlist.net_count()];
    let mut cc1 = vec![SCOAP_INF; netlist.net_count()];
    for &pi in netlist.primary_inputs() {
        cc0[pi.index()] = 1;
        cc1[pi.index()] = 1;
    }
    let mut in_queue = vec![false; netlist.gate_count()];
    for component in components.iter().rev() {
        let mut queue: VecDeque<u32> = component.iter().copied().collect();
        for &g in component {
            in_queue[g as usize] = true;
        }
        while let Some(g) = queue.pop_front() {
            in_queue[g as usize] = false;
            let gate = &netlist.gates()[g as usize];
            let out = gate.output.index();
            let costs = slot_costs(netlist, g as usize, &cc0, &cc1);
            let (new0, new1) = output_controllability(gate.kind, &costs);
            if new0 < cc0[out] || new1 < cc1[out] {
                cc0[out] = cc0[out].min(new0);
                cc1[out] = cc1[out].min(new1);
                for &reader in netlist.fanout_of_net(gate.output) {
                    let r = reader.index();
                    if comp_of[r] == comp_of[g as usize] && !in_queue[r] {
                        in_queue[r] = true;
                        queue.push_back(reader.0);
                    }
                }
            }
        }
    }
    (cc0, cc1)
}

/// Backward min-cost fixpoint for CO over all nets, scheduled by the
/// SCC condensation in emission order (sinks first).
fn observability(
    netlist: &Netlist,
    cc0: &[u32],
    cc1: &[u32],
    components: &[Vec<u32>],
    comp_of: &[u32],
) -> Vec<u32> {
    let mut co = vec![SCOAP_INF; netlist.net_count()];
    for (_, net) in netlist.primary_outputs() {
        co[net.index()] = 0;
    }
    let mut in_queue = vec![false; netlist.gate_count()];
    for component in components {
        let mut queue: VecDeque<u32> = component.iter().copied().collect();
        for &g in component {
            in_queue[g as usize] = true;
        }
        while let Some(g) = queue.pop_front() {
            in_queue[g as usize] = false;
            let gate = &netlist.gates()[g as usize];
            let co_out = co[gate.output.index()];
            let costs = slot_costs(netlist, g as usize, cc0, cc1);
            for (pin, &net) in gate.inputs.iter().enumerate() {
                let candidate = pin_observability(gate.kind, &costs, pin, co_out);
                if candidate < co[net.index()] {
                    co[net.index()] = candidate;
                    if let Some(Driver::Gate(driver)) = netlist.net(net).driver {
                        let d = driver.index();
                        if comp_of[d] == comp_of[g as usize] && !in_queue[d] {
                            in_queue[d] = true;
                            queue.push_back(driver.0);
                        }
                    }
                }
            }
        }
    }
    co
}

/// Brandes betweenness centrality on a directed unweighted graph:
/// for every node the number of shortest source→target paths passing
/// through it, accumulated over all sources by BFS plus reverse
/// dependency propagation. One BFS per source makes the cost O(V·E).
///
/// Shortest-path predecessors are not stored: a reverse-adjacency
/// neighbour `v` of `w` is one exactly when `dist[v] + 1 == dist[w]`.
/// Each `delta[v]` still sums its successors' shares in reverse BFS
/// order, so the result is bit-identical to the textbook form. Only the
/// nodes the previous BFS reached are reset between sources, and the
/// BFS visit order doubles as its queue.
pub fn betweenness(adjacency: &[Vec<u32>]) -> Vec<f64> {
    let n = adjacency.len();
    let edges = adjacency
        .iter()
        .enumerate()
        .flat_map(|(v, successors)| successors.iter().map(move |&w| (v as u32, w)));
    let successors = CompressedRows::new(n, edges.clone());
    let predecessors = CompressedRows::new(n, edges.map(|(v, w)| (w, v)));
    let mut centrality = vec![0.0; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i32; n];
    let mut delta = vec![0.0f64; n];
    for source in 0..n {
        for &v in &order {
            let v = v as usize;
            sigma[v] = 0.0;
            dist[v] = -1;
            delta[v] = 0.0;
        }
        order.clear();
        sigma[source] = 1.0;
        dist[source] = 0;
        order.push(source as u32);
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &w in successors.row(v) {
                let w = w as usize;
                if dist[w] < 0 {
                    dist[w] = dist[v] + 1;
                    order.push(w as u32);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                }
            }
        }
        // order[0] is the source: it has no predecessors and earns no
        // centrality from its own paths.
        for &w in order[1..].iter().rev() {
            let w = w as usize;
            for &v in predecessors.row(w) {
                let v = v as usize;
                if dist[v] + 1 == dist[w] {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
            }
            centrality[w] += delta[w];
        }
    }
    centrality
}

/// A graph's rows in one flat array: row `r` holds the values of the
/// `(r, value)` pairs it was built from, in their original order.
struct CompressedRows {
    start: Vec<u32>,
    values: Vec<u32>,
}

impl CompressedRows {
    fn new(rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> CompressedRows {
        let mut start = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            start[row as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut values = vec![0u32; start[rows] as usize];
        for (row, value) in pairs {
            values[fill[row as usize] as usize] = value;
            fill[row as usize] += 1;
        }
        CompressedRows { start, values }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.values[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// PageRank over a directed graph with uniform teleport and dangling
/// mass redistributed uniformly; power iteration to convergence.
pub fn pagerank(adjacency: &[Vec<u32>]) -> Vec<f64> {
    let n = adjacency.len();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    for _ in 0..100 {
        let dangling: f64 = (0..n)
            .filter(|&v| adjacency[v].is_empty())
            .map(|v| rank[v])
            .sum();
        let base = (1.0 - PAGERANK_DAMPING) * uniform + PAGERANK_DAMPING * dangling * uniform;
        next.iter_mut().for_each(|r| *r = base);
        for (v, successors) in adjacency.iter().enumerate() {
            if successors.is_empty() {
                continue;
            }
            let share = PAGERANK_DAMPING * rank[v] / successors.len() as f64;
            for &w in successors {
                next[w as usize] += share;
            }
        }
        let moved: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if moved < 1e-12 {
            break;
        }
    }
    rank
}

/// Articulation points of an undirected graph (adjacency must be
/// symmetric and self-loop-free), by iterative DFS low-link.
pub fn articulation_points(undirected: &[Vec<u32>]) -> Vec<bool> {
    let n = undirected.len();
    const UNVISITED: u32 = u32::MAX;
    let mut disc = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut articulation = vec![false; n];
    let mut timer = 0u32;
    // Frames: (node, parent, next edge index).
    let mut frames: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != UNVISITED {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        frames.push((root, usize::MAX, 0));
        let mut root_children = 0usize;
        while let Some(&mut (v, parent, ref mut edge)) = frames.last_mut() {
            if *edge < undirected[v].len() {
                let w = undirected[v][*edge] as usize;
                *edge += 1;
                if disc[w] == UNVISITED {
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    frames.push((w, v, 0));
                } else if w != parent {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                    if frames.len() == 1 {
                        root_children += 1;
                    } else if low[v] >= disc[p] {
                        articulation[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            articulation[root] = true;
        }
    }
    articulation
}

/// Post-dominance counts: for every gate, the number of other gates
/// whose every path to a primary output passes through it.
///
/// Computed as dominators of the reverse gate graph rooted at a virtual
/// sink fed by every PO-driving gate (the iterative Cooper–Harvey–
/// Kennedy scheme over reverse post-order, which handles the cyclic
/// sequential graph directly). Gates that cannot reach any output have
/// no post-dominator and count toward nobody.
fn post_dominance(netlist: &Netlist, adjacency: &[Vec<u32>]) -> Vec<u32> {
    let n = adjacency.len();
    let sink = n;
    // Forward successors in the sink-augmented graph.
    let mut succ: Vec<Vec<u32>> = adjacency.to_vec();
    succ.push(Vec::new());
    for (i, successors) in succ.iter_mut().enumerate().take(n) {
        if netlist.is_primary_output(netlist.gates()[i].output) {
            successors.push(sink as u32);
        }
    }
    // Reverse graph, rooted at the sink.
    let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for (v, successors) in succ.iter().enumerate() {
        for &w in successors {
            radj[w as usize].push(v as u32);
        }
    }
    // Reverse post-order of the reverse graph from the sink.
    let mut visited = vec![false; n + 1];
    let mut postorder: Vec<usize> = Vec::with_capacity(n + 1);
    let mut frames: Vec<(usize, usize)> = vec![(sink, 0)];
    visited[sink] = true;
    while let Some(&mut (v, ref mut edge)) = frames.last_mut() {
        if *edge < radj[v].len() {
            let w = radj[v][*edge] as usize;
            *edge += 1;
            if !visited[w] {
                visited[w] = true;
                frames.push((w, 0));
            }
        } else {
            frames.pop();
            postorder.push(v);
        }
    }
    postorder.reverse();
    let rpo = postorder;
    const UNDEF: usize = usize::MAX;
    let mut rpo_num = vec![UNDEF; n + 1];
    for (i, &v) in rpo.iter().enumerate() {
        rpo_num[v] = i;
    }

    let mut idom = vec![UNDEF; n + 1];
    idom[sink] = sink;
    let intersect = |mut a: usize, mut b: usize, idom: &[usize], rpo_num: &[usize]| {
        while a != b {
            while rpo_num[a] > rpo_num[b] {
                a = idom[a];
            }
            while rpo_num[b] > rpo_num[a] {
                b = idom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &v in rpo.iter().skip(1) {
            // Predecessors in the reverse graph are forward successors.
            let mut new_idom = UNDEF;
            for &w in &succ[v] {
                let w = w as usize;
                if idom[w] != UNDEF {
                    new_idom = if new_idom == UNDEF {
                        w
                    } else {
                        intersect(new_idom, w, &idom, &rpo_num)
                    };
                }
            }
            if new_idom != UNDEF && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }

    let mut dominated = vec![0u32; n];
    for v in 0..n {
        if rpo_num[v] == UNDEF {
            continue; // never reaches an output
        }
        let mut d = idom[v];
        while d != sink {
            dominated[d] += 1;
            d = idom[d];
        }
    }
    dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn profile(netlist: &Netlist) -> StructuralProfile {
        StructuralProfile::analyze(netlist)
    }

    #[test]
    fn scoap_matches_classic_and_or_rules() {
        let mut b = NetlistBuilder::new("t");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let and = b.gate_named("AND", GateKind::And2, &[a, c]);
        let or = b.gate_named("OR", GateKind::Or2, &[a, c]);
        b.primary_output("x", and);
        b.primary_output("y", or);
        let n = b.finish().unwrap();
        let p = profile(&n);
        let and_id = n.find_gate("AND").unwrap();
        let or_id = n.find_gate("OR").unwrap();
        // Classic SCOAP: CC1(AND) = CC1(a)+CC1(b)+1, CC0(AND) = min+1.
        assert_eq!(p.gate_cc1(&n, and_id), 3);
        assert_eq!(p.gate_cc0(&n, and_id), 2);
        // CC1(OR) = min+1, CC0(OR) = sum+1.
        assert_eq!(p.gate_cc1(&n, or_id), 2);
        assert_eq!(p.gate_cc0(&n, or_id), 3);
    }

    #[test]
    fn scoap_xor_charges_the_side_pin() {
        let mut b = NetlistBuilder::new("x");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let x = b.gate_named("X", GateKind::Xor2, &[a, c]);
        b.primary_output("z", x);
        let n = b.finish().unwrap();
        let p = profile(&n);
        let x_id = n.find_gate("X").unwrap();
        // CC1(XOR) = min(CC1+CC0, CC0+CC1) + 1 = 3.
        assert_eq!(p.gate_cc1(&n, x_id), 3);
        assert_eq!(p.gate_cc0(&n, x_id), 3);
        // CO(a) = CO(z) + min(CC0(b), CC1(b)) + 1 = 0 + 1 + 1.
        assert_eq!(p.co[a.index()], 2);
    }

    #[test]
    fn scoap_observability_through_an_and() {
        let mut b = NetlistBuilder::new("o");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let and = b.gate(GateKind::And2, &[a, c]);
        b.primary_output("z", and);
        let n = b.finish().unwrap();
        let p = profile(&n);
        // CO(a) = CO(z) + CC1(b) + 1 = 0 + 1 + 1 = 2.
        assert_eq!(p.co[a.index()], 2);
        assert_eq!(p.co[c.index()], 2);
    }

    #[test]
    fn sequential_cells_charge_the_sequential_step() {
        let mut b = NetlistBuilder::new("s");
        let d = b.primary_input("d");
        let q = b.gate_named("REG", GateKind::Dff, &[d]);
        let z = b.gate_named("BUF", GateKind::Buf, &[q]);
        b.primary_output("z", z);
        let n = b.finish().unwrap();
        let p = profile(&n);
        let reg = n.find_gate("REG").unwrap();
        // CC1(q) = CC1(d) + SEQUENTIAL_STEP; the state slot is don't-care
        // for a plain DFF and must not be charged.
        assert_eq!(p.gate_cc1(&n, reg), 1 + SEQUENTIAL_STEP);
        assert_eq!(p.gate_cc0(&n, reg), 1 + SEQUENTIAL_STEP);
        // CO(d) = CO(q) + SEQUENTIAL_STEP = (0 + 1) + 10.
        assert_eq!(p.co[d.index()], 1 + SEQUENTIAL_STEP);
    }

    #[test]
    fn reset_gives_cheap_zero_controllability() {
        let mut b = NetlistBuilder::new("r");
        let d = b.primary_input("d");
        let rst = b.primary_input("rst");
        let q = b.gate_named("REG", GateKind::Dffr, &[d, rst]);
        b.primary_output("q", q);
        let n = b.finish().unwrap();
        let p = profile(&n);
        let reg = n.find_gate("REG").unwrap();
        // Reset path: CC1(rst) + step; data path would cost CC0(d)+CC0(rst)+step.
        assert_eq!(p.gate_cc0(&n, reg), 1 + SEQUENTIAL_STEP);
        assert_eq!(p.gate_cc1(&n, reg), 2 + SEQUENTIAL_STEP);
    }

    #[test]
    fn tie_cells_have_one_sided_controllability() {
        let mut b = NetlistBuilder::new("tie");
        let a = b.primary_input("a");
        let one = b.gate_named("T1", GateKind::Tie1, &[]);
        let and = b.gate(GateKind::And2, &[a, one]);
        b.primary_output("z", and);
        let n = b.finish().unwrap();
        let p = profile(&n);
        let t1 = n.find_gate("T1").unwrap();
        assert_eq!(p.gate_cc1(&n, t1), 1);
        assert_eq!(p.gate_cc0(&n, t1), SCOAP_INF);
    }

    #[test]
    fn blocked_paths_yield_infinite_observability() {
        let mut b = NetlistBuilder::new("blk");
        let a = b.primary_input("a");
        let zero = b.gate(GateKind::Tie0, &[]);
        // a AND 0 is constant 0; `a` cannot be observed through it.
        let and = b.gate(GateKind::And2, &[a, zero]);
        b.primary_output("z", and);
        let n = b.finish().unwrap();
        let p = profile(&n);
        assert_eq!(p.co[a.index()], SCOAP_INF);
    }

    fn chain3() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.primary_input("a");
        let g0 = b.gate_named("G0", GateKind::Inv, &[a]);
        let g1 = b.gate_named("G1", GateKind::Inv, &[g0]);
        let g2 = b.gate_named("G2", GateKind::Inv, &[g1]);
        b.primary_output("z", g2);
        b.finish().unwrap()
    }

    #[test]
    fn chain_middle_is_articulation_and_between() {
        let n = chain3();
        let p = profile(&n);
        let mid = n.find_gate("G1").unwrap().index();
        assert!(p.articulation[mid]);
        assert!(!p.articulation[n.find_gate("G0").unwrap().index()]);
        // Only shortest path G0 -> G2 passes through G1.
        assert!((p.betweenness[mid] - 1.0).abs() < 1e-12);
        assert_eq!(p.betweenness[n.find_gate("G2").unwrap().index()], 0.0);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let n = chain3();
        let p = profile(&n);
        let total: f64 = p.pagerank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn diamond_join_postdominates_the_cone() {
        let mut b = NetlistBuilder::new("d");
        let a = b.primary_input("a");
        let split = b.gate_named("SPLIT", GateKind::Buf, &[a]);
        let top = b.gate_named("TOP", GateKind::Inv, &[split]);
        let bottom = b.gate_named("BOT", GateKind::Buf, &[split]);
        let join = b.gate_named("JOIN", GateKind::And2, &[top, bottom]);
        b.primary_output("z", join);
        let n = b.finish().unwrap();
        let p = profile(&n);
        // Every path from SPLIT, TOP and BOT to the output crosses JOIN.
        assert_eq!(p.dominated[n.find_gate("JOIN").unwrap().index()], 3);
        assert_eq!(p.dominated[n.find_gate("TOP").unwrap().index()], 0);
        assert_eq!(p.dominated[n.find_gate("SPLIT").unwrap().index()], 0);
    }

    #[test]
    fn unobservable_logic_dominates_nothing() {
        let mut b = NetlistBuilder::new("u");
        let a = b.primary_input("a");
        let live = b.gate_named("LIVE", GateKind::Inv, &[a]);
        let dead1 = b.gate_named("DEAD1", GateKind::Buf, &[a]);
        let _dead2 = b.gate_named("DEAD2", GateKind::Inv, &[dead1]);
        b.primary_output("z", live);
        let n = b.finish().unwrap();
        let p = profile(&n);
        assert_eq!(p.dominated[n.find_gate("DEAD1").unwrap().index()], 0);
    }

    #[test]
    fn cost_to_feature_is_monotone_and_bounded() {
        assert!(cost_to_feature(0) < cost_to_feature(1));
        assert!(cost_to_feature(10) < cost_to_feature(100));
        assert!(cost_to_feature(SCOAP_INF) > cost_to_feature(1 << 19));
        assert!(cost_to_feature(SCOAP_INF).is_finite());
    }

    #[test]
    fn profiles_are_deterministic() {
        let n = crate::designs::or1200_icfsm();
        assert_eq!(profile(&n), profile(&n));
    }

    #[test]
    fn profile_shapes_match_the_design() {
        let n = crate::designs::uart_ctrl();
        let p = profile(&n);
        assert_eq!(p.cc0.len(), n.net_count());
        assert_eq!(p.cc1.len(), n.net_count());
        assert_eq!(p.co.len(), n.net_count());
        assert_eq!(p.betweenness.len(), n.gate_count());
        assert_eq!(p.pagerank.len(), n.gate_count());
        assert_eq!(p.articulation.len(), n.gate_count());
        assert_eq!(p.dominated.len(), n.gate_count());
    }
}
