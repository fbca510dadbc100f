package exec

import (
	"sort"

	"decorr/internal/qgm"
)

// FreeRefsOf exposes a plan's free references to the package's external
// tests.
func (p *Plan) FreeRefsOf(b *qgm.Box) []qgm.RefKey { return p.freeRefs[b] }

// DedupRefs is qgm.FreeRefs' answer in the plan's form: deduplicated and
// ordered by quantifier ID and column — the oracle the one-pass free
// references are checked against.
func DedupRefs(refs []*qgm.ColRef) []qgm.RefKey {
	seen := map[qgm.RefKey]bool{}
	var out []qgm.RefKey
	for _, r := range refs {
		k := qgm.RefKey{Q: r.Q, Col: r.Col}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q.ID != out[j].Q.ID {
			return out[i].Q.ID < out[j].Q.ID
		}
		return out[i].Col < out[j].Col
	})
	return out
}
