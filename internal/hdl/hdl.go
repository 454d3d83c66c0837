// Package hdl emits synthesizable Verilog for netlist circuits, in the
// style the paper describes for its implementation: "a hand-crafted design
// in Verilog HDL with Xilinx primitives" — each LUT node becomes a LUT6
// primitive instance with its INIT truth table.
//
// The emitted module is purely combinational (the paper's design pipelines
// these blocks; register insertion is a synthesis-tool concern outside this
// reproduction's scope).
package hdl

import (
	"fmt"
	"io"
	"strings"

	"privehd/internal/netlist"
)

// WriteVerilog writes the netlist as a Verilog module. Inputs keep their
// netlist names; LUT outputs become wires n<id>; outputs are y0..yN.
func WriteVerilog(w io.Writer, n *netlist.Netlist) error {
	var b strings.Builder
	var inputNames []string
	type lutInst struct {
		name  string
		table uint64
		fanin []netlist.NodeID
		id    int
	}
	var luts []lutInst
	var outputs []netlist.NodeID

	n.Visit(
		func(i int, name string) { inputNames = append(inputNames, sanitize(name)) },
		func(i int, name string, table uint64, fanin []netlist.NodeID) {
			luts = append(luts, lutInst{name: sanitize(name), table: table, fanin: fanin, id: i})
		},
		func(i int, id netlist.NodeID) { outputs = append(outputs, id) },
	)

	wire := func(id netlist.NodeID) string {
		if int(id) < len(inputNames) {
			return inputNames[id]
		}
		return fmt.Sprintf("n%d", int(id)-len(inputNames))
	}

	fmt.Fprintf(&b, "// Generated by privehd/internal/hdl. Do not edit.\n")
	fmt.Fprintf(&b, "// %d inputs, %d LUT6 primitives, depth %d.\n", n.NumInputs(), n.NumLUTs(), n.Depth())
	fmt.Fprintf(&b, "module %s (\n", sanitize(n.Name()))
	for _, name := range inputNames {
		fmt.Fprintf(&b, "    input  wire %s,\n", name)
	}
	for i := range outputs {
		sep := ","
		if i == len(outputs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    output wire y%d%s\n", i, sep)
	}
	fmt.Fprintf(&b, ");\n\n")

	for i := range luts {
		fmt.Fprintf(&b, "  wire n%d;\n", i)
	}
	b.WriteByte('\n')

	for i, l := range luts {
		fmt.Fprintf(&b, "  // %s\n", l.name)
		fmt.Fprintf(&b, "  LUT6 #(.INIT(64'h%016X)) lut_%d (\n", l.table, i)
		fmt.Fprintf(&b, "    .O(n%d)", i)
		for k := 0; k < 6; k++ {
			src := "1'b0"
			if k < len(l.fanin) {
				src = wire(l.fanin[k])
			}
			fmt.Fprintf(&b, ",\n    .I%d(%s)", k, src)
		}
		fmt.Fprintf(&b, "\n  );\n")
	}
	b.WriteByte('\n')

	for i, id := range outputs {
		fmt.Fprintf(&b, "  assign y%d = %s;\n", i, wire(id))
	}
	fmt.Fprintf(&b, "\nendmodule\n")

	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("hdl: writing Verilog: %w", err)
	}
	return nil
}

// sanitize maps arbitrary node names onto Verilog identifiers.
func sanitize(name string) string {
	if name == "" {
		return "unnamed"
	}
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
