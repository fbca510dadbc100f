package qgm

import (
	"fmt"
	"strings"
)

// Format renders the graph as a deterministic textual plan, one box per
// stanza, in DFS preorder from the root. Shared boxes (common
// subexpressions) appear once and are referenced by id. This is the
// text-mode analogue of the paper's Figure 1.
func Format(g *Graph) string {
	var sb strings.Builder
	for _, b := range Boxes(g.Root) {
		formatBox(&sb, b, g.Root)
	}
	if len(g.OrderBy) > 0 {
		keys := make([]string, len(g.OrderBy))
		for i, k := range g.OrderBy {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("c%d %s", k.Col, dir)
		}
		fmt.Fprintf(&sb, "order by: %s\n", strings.Join(keys, ", "))
	}
	return sb.String()
}

func formatBox(sb *strings.Builder, b *Box, root *Box) {
	tag := b.Label
	if tag != "" {
		tag = " [" + tag + "]"
	}
	d := ""
	if b.Distinct {
		d = " DISTINCT"
	}
	fmt.Fprintf(sb, "Box %d: %s%s%s\n", b.ID, b.Kind, d, tag)
	if b.Kind == BoxBase {
		fmt.Fprintf(sb, "  table %s(%s)\n", b.Table.Name, strings.Join(b.OutNames(), ", "))
		return
	}
	inside := boxSet(Boxes(b))
	for _, q := range b.Quants {
		fmt.Fprintf(sb, "  quant %s (%s) over box %d\n", q.Name(), q.Kind, q.Input.ID)
	}
	for _, p := range b.Preds {
		corr := ""
		for _, r := range Refs(p) {
			if !inside[r.Q.Owner] {
				corr = "   <- correlated"
				break
			}
		}
		fmt.Fprintf(sb, "  pred %s%s\n", FormatExpr(p), corr)
	}
	if len(b.GroupBy) > 0 {
		gb := make([]string, len(b.GroupBy))
		for i, e := range b.GroupBy {
			gb[i] = FormatExpr(e)
		}
		fmt.Fprintf(sb, "  group by %s\n", strings.Join(gb, ", "))
	}
	for _, c := range b.Cols {
		fmt.Fprintf(sb, "  out %s = %s\n", c.Name, FormatExpr(c.Expr))
	}
}
