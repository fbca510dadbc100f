package qgm

import (
	"fmt"
	"strings"
)

// Dot renders the graph in Graphviz DOT form, mimicking the paper's QGM
// figures: boxes as nodes (non-SPJ boxes shaded, as in Figure 1), solid
// edges for quantifiers ("iterators"), dashed edges for correlations from
// the destination box to the source quantifier's owner.
func Dot(g *Graph) string {
	var b strings.Builder
	b.WriteString("digraph qgm {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, box := range Boxes(g.Root) {
		label := fmt.Sprintf("Box %d: %s", box.ID, box.Kind)
		if box.Label != "" {
			label += " [" + box.Label + "]"
		}
		if box.Distinct {
			label += " DISTINCT"
		}
		if box.Kind == BoxBase {
			label += "\\n" + box.Table.Name
		}
		for _, p := range box.Preds {
			label += "\\n" + escapeDot(FormatExpr(p))
		}
		if len(box.GroupBy) > 0 {
			gb := make([]string, len(box.GroupBy))
			for i, e := range box.GroupBy {
				gb[i] = FormatExpr(e)
			}
			label += "\\nGROUP BY " + escapeDot(strings.Join(gb, ", "))
		}
		style := ""
		if box.Kind != BoxSelect && box.Kind != BoxBase {
			// The paper shades non-SPJ boxes grey.
			style = ", style=filled, fillcolor=lightgrey"
		}
		fmt.Fprintf(&b, "  b%d [label=\"%s\"%s];\n", box.ID, label, style)
	}
	// Quantifier edges.
	for _, box := range Boxes(g.Root) {
		for _, q := range box.Quants {
			fmt.Fprintf(&b, "  b%d -> b%d [label=\"%s (%s)\"];\n",
				q.Input.ID, box.ID, q.Name(), q.Kind)
		}
	}
	// Correlation edges (dashed), one per correlated (destination box,
	// source box) pair.
	seen := map[[2]int]bool{}
	for _, box := range Boxes(g.Root) {
		box.ExprSlots(func(slot *Expr) {
			for _, r := range Refs(*slot) {
				if r.Q.Owner == box {
					continue
				}
				key := [2]int{box.ID, r.Q.Owner.ID}
				if seen[key] {
					continue
				}
				seen[key] = true
				fmt.Fprintf(&b, "  b%d -> b%d [style=dashed, color=red, label=\"corr\"];\n",
					box.ID, r.Q.Owner.ID)
			}
		})
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDot(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\"", "\\\"")
}
