//! Emits a netlist back to the structural-Verilog subset accepted by
//! [`crate::parser::parse_verilog`], enabling lossless round trips.

use crate::netlist::{NetId, Netlist};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders `netlist` as structural Verilog.
///
/// The output parses back into a structurally identical design (same cells,
/// same connectivity, same port directions), which the round-trip tests in
/// this module and the integration suite assert. Internal nets that drive a
/// primary output are renamed to the port name; a second port aliasing the
/// same net falls back to an `assign` (one extra `BUF` after re-parsing).
///
/// # Example
///
/// ```
/// use fusa_netlist::{parser::parse_verilog, writer::write_verilog, designs};
///
/// # fn main() -> Result<(), fusa_netlist::NetlistError> {
/// let original = designs::or1200_icfsm();
/// let text = write_verilog(&original);
/// let reparsed = parse_verilog(&text)?;
/// assert_eq!(original.gate_count(), reparsed.gate_count());
/// # Ok(())
/// # }
/// ```
pub fn write_verilog(netlist: &Netlist) -> String {
    // Choose an emitted name for every net. Output ports rename the nets
    // they expose (unless the net is a primary input or already claimed).
    let mut names: Vec<String> = netlist.nets().iter().map(|n| sanitize(&n.name)).collect();
    let pi_set: std::collections::HashSet<NetId> =
        netlist.primary_inputs().iter().copied().collect();
    let mut claimed: HashMap<NetId, ()> = HashMap::new();
    let mut aliases: Vec<(String, NetId)> = Vec::new();
    for (port, net) in netlist.primary_outputs() {
        let port_name = sanitize(port);
        if pi_set.contains(net) || claimed.contains_key(net) {
            aliases.push((port_name, *net));
        } else {
            names[net.index()] = port_name;
            claimed.insert(*net, ());
        }
    }
    // Ensure uniqueness after renaming (a rename could collide with an
    // existing wire name).
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, name) in names.iter_mut().enumerate() {
        let is_renamed = claimed.contains_key(&NetId(i as u32));
        match seen.entry(name.clone()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                if !is_renamed {
                    let fresh = format!("{name}__dup{i}");
                    *name = fresh.clone();
                    seen.insert(fresh, i);
                }
            }
        }
    }

    let mut out = String::new();
    let mut ports: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&n| names[n.index()].clone())
        .collect();
    ports.extend(netlist.primary_outputs().iter().map(|(p, _)| sanitize(p)));
    let _ = writeln!(out, "module {} ({});", netlist.name(), ports.join(", "));

    for &input in netlist.primary_inputs() {
        let _ = writeln!(out, "  input {};", names[input.index()]);
    }
    for (port, _) in netlist.primary_outputs() {
        let _ = writeln!(out, "  output {};", sanitize(port));
    }

    // Declare internal wires.
    let mut declared: std::collections::HashSet<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&n| names[n.index()].clone())
        .collect();
    declared.extend(netlist.primary_outputs().iter().map(|(p, _)| sanitize(p)));
    for name in names.iter().take(netlist.net_count()) {
        if declared.insert(name.clone()) {
            let _ = writeln!(out, "  wire {name};");
        }
    }

    for (port_name, net) in &aliases {
        let _ = writeln!(out, "  assign {} = {};", port_name, names[net.index()]);
    }

    // One line per gate, written in place: input pins, then the output.
    for gate in netlist.gates() {
        let _ = write!(out, "  {} ", gate.kind.cell_name());
        push_sanitized(&mut out, &gate.name);
        out.push_str(" (");
        for (&net, pin) in gate.inputs.iter().zip(gate.kind.input_pin_names()) {
            let _ = write!(out, ".{pin}({}), ", names[net.index()]);
        }
        let _ = writeln!(
            out,
            ".{}({}));",
            gate.kind.output_pin_name(),
            names[gate.output.index()]
        );
    }

    out.push_str("endmodule\n");
    out
}

/// Maps internal names to parser-safe identifiers. Bit selects
/// (`name[3]`) survive; anything else exotic is underscored.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    push_sanitized(&mut out, name);
    out
}

/// Appends [`sanitize`]`(name)` to `out`.
fn push_sanitized(out: &mut String, name: &str) {
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' || c == '[' || c == ']' {
            c
        } else {
            '_'
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;
    use crate::parser::parse_verilog;

    fn round_trip(netlist: &Netlist) -> Netlist {
        let text = write_verilog(netlist);
        parse_verilog(&text).unwrap_or_else(|e| panic!("round trip failed: {e}\n{text}"))
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut b = NetlistBuilder::new("rt");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let x = b.gate_named("U1", GateKind::Aoi21, &[a, c, a]);
        let q = b.gate_named("R1", GateKind::Dffr, &[x, c]);
        b.primary_output("q", q);
        let original = b.finish().unwrap();
        let reparsed = round_trip(&original);
        assert_eq!(original.gate_count(), reparsed.gate_count());
        assert_eq!(
            original.primary_inputs().len(),
            reparsed.primary_inputs().len()
        );
        assert_eq!(original.kind_histogram(), reparsed.kind_histogram());
    }

    #[test]
    fn port_renames_internal_net() {
        let mut b = NetlistBuilder::new("alias");
        let a = b.primary_input("a");
        let internal = b.gate_named("U1", GateKind::Inv, &[a]);
        b.primary_output("zport", internal);
        let netlist = b.finish().unwrap();
        let text = write_verilog(&netlist);
        assert!(text.contains(".Z(zport)"), "{text}");
        let reparsed = parse_verilog(&text).unwrap();
        assert_eq!(reparsed.gate_count(), netlist.gate_count());
    }

    #[test]
    fn pi_fed_output_uses_assign() {
        let mut b = NetlistBuilder::new("feedthrough");
        let a = b.primary_input("a");
        let x = b.gate(GateKind::Inv, &[a]);
        b.primary_output("z", x);
        b.primary_output("a_copy", a);
        let netlist = b.finish().unwrap();
        let text = write_verilog(&netlist);
        assert!(text.contains("assign a_copy = a"), "{text}");
        // Re-parsing adds exactly one BUF for the feedthrough.
        let reparsed = parse_verilog(&text).unwrap();
        assert_eq!(reparsed.gate_count(), netlist.gate_count() + 1);
    }

    #[test]
    fn two_ports_same_net_second_aliases() {
        let mut b = NetlistBuilder::new("dualport");
        let a = b.primary_input("a");
        let x = b.gate(GateKind::Inv, &[a]);
        b.primary_output("z1", x);
        b.primary_output("z2", x);
        let netlist = b.finish().unwrap();
        let text = write_verilog(&netlist);
        assert!(text.contains("assign z2 = z1"), "{text}");
        let reparsed = parse_verilog(&text).unwrap();
        assert_eq!(reparsed.primary_outputs().len(), 2);
    }

    #[test]
    fn ties_round_trip() {
        let mut b = NetlistBuilder::new("ties");
        let one = b.gate_named("T1", GateKind::Tie1, &[]);
        b.primary_output("z", one);
        let netlist = b.finish().unwrap();
        let reparsed = round_trip(&netlist);
        assert_eq!(reparsed.kind_histogram().get("TIE1"), Some(&1));
    }

    #[test]
    fn paper_designs_round_trip() {
        for design in crate::designs::paper_designs() {
            let reparsed = round_trip(&design);
            assert_eq!(
                design.gate_count(),
                reparsed.gate_count(),
                "{}",
                design.name()
            );
            assert_eq!(design.kind_histogram(), reparsed.kind_histogram());
        }
    }
}

#[cfg(test)]
mod extra_writer_tests {
    use super::*;
    use crate::parser::parse_verilog;

    #[test]
    fn uart_round_trips() {
        let original = crate::designs::uart_ctrl();
        let text = write_verilog(&original);
        let reparsed = parse_verilog(&text).expect("uart reparses");
        assert_eq!(original.gate_count(), reparsed.gate_count());
        assert_eq!(original.kind_histogram(), reparsed.kind_histogram());
    }

    #[test]
    fn exotic_characters_are_sanitized() {
        let mut b = crate::builder::NetlistBuilder::new("weird");
        let a = b.primary_input("a$strange:name");
        let z = b.gate(crate::gate::GateKind::Inv, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let text = write_verilog(&netlist);
        assert!(!text.contains(':'), "colon must be sanitized: {text}");
        assert!(parse_verilog(&text).is_ok());
    }

    #[test]
    fn emitted_text_declares_every_wire_once() {
        let netlist = crate::designs::or1200_icfsm();
        let text = write_verilog(&netlist);
        let mut declared = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.trim().strip_prefix("wire ") {
                let name = rest.trim_end_matches(';');
                assert!(declared.insert(name.to_string()), "duplicate wire {name}");
            }
        }
    }
}
