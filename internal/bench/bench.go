// Package bench regenerates every table and figure of the paper's
// evaluation (§5, Table 1, Figures 5–9) and the §6 parallel analysis. Each
// experiment builds its workload, runs every strategy the paper ran (noting
// inapplicability where the paper notes it), and reports wall time plus the
// machine-independent work counters. Absolute numbers differ from the 1996
// hardware; the shapes — who wins, by what factor, where the crossovers
// are — are the reproduction target (see EXPERIMENTS.md).
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"decorr/internal/classic"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/storage"
)

// Config scales the experiments.
type Config struct {
	// SF is the TPC-D scale factor (1.0 = the paper's 120 MB database).
	SF float64
	// Seed drives data generation.
	Seed int64
	// Repeats is how many timed runs each measurement takes (minimum is
	// reported), mirroring the paper's "average of several consecutive
	// runs" methodology with a sturdier estimator.
	Repeats int
}

// DefaultConfig matches the repository's test/bench scale.
func DefaultConfig() Config { return Config{SF: 0.1, Seed: 42, Repeats: 3} }

func (c Config) normalized() Config {
	if c.SF <= 0 {
		c.SF = 0.1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// Line is one bar of a figure: a strategy and its measured cost.
type Line struct {
	Strategy string
	Millis   float64
	Stats    exec.Stats
	Rows     int
	Note     string // e.g. "not applicable (non-linear query)"
}

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Paper string // the paper's qualitative finding for this artifact
	Lines []Line
	Extra []string // free-form rows (Table 1, parallel sweeps)
	Scale string
}

// String renders the report the way cmd/benchfig prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Scale != "" {
		fmt.Fprintf(&b, "workload: %s\n", r.Scale)
	}
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper:    %s\n", r.Paper)
	}
	if len(r.Lines) > 0 {
		fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %8s\n",
			"strategy", "time(ms)", "work", "invocations", "scanned", "rows")
		for _, l := range r.Lines {
			if l.Note != "" {
				fmt.Fprintf(&b, "%-8s %s\n", l.Strategy, l.Note)
				continue
			}
			fmt.Fprintf(&b, "%-8s %12.3f %12d %12d %12d %8d\n",
				l.Strategy, l.Millis, l.Stats.Work(), l.Stats.SubqueryInvocations,
				l.Stats.RowsScanned, l.Rows)
		}
	}
	for _, e := range r.Extra {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

// CSV renders the measured lines as comma-separated rows (no header) for
// plotting: id,strategy,ms,work,invocations,scanned,rows. Experiments
// without strategy lines (Table 1, the plan traces) emit nothing.
func (r *Report) CSV() string {
	var b strings.Builder
	for _, l := range r.Lines {
		if l.Note != "" {
			fmt.Fprintf(&b, "%s,%s,NA,NA,NA,NA,NA\n", r.ID, l.Strategy)
			continue
		}
		fmt.Fprintf(&b, "%s,%s,%.3f,%d,%d,%d,%d\n",
			r.ID, l.Strategy, l.Millis, l.Stats.Work(),
			l.Stats.SubqueryInvocations, l.Stats.RowsScanned, l.Rows)
	}
	return b.String()
}

// CSVHeader is the column list matching Report.CSV rows.
const CSVHeader = "experiment,strategy,ms,work,invocations,scanned,rows"

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

// Experiments lists every artifact in paper order.
var Experiments = []Experiment{
	{"table1", "TPC-D database cardinalities", Table1},
	{"fig1", "QGM of the example query (§2/Figure 1)", Figure1},
	{"fig2-4", "magic decorrelation stage trace (Figures 2–4)", Figures2to4},
	{"fig5", "Query 1 with all indexes", Figure5},
	{"fig6", "Query 1(b): no size predicate, two regions", Figure6},
	{"fig7", "Query 1(c): subquery index dropped", Figure7},
	{"fig8", "Query 2: key correlation, cheap subquery", Figure8},
	{"fig9", "Query 3: non-linear, duplicate-heavy", Figure9},
	{"parallel", "shared-nothing execution (§6)", Parallel},
	{"parallel-tpcd", "shared-nothing plan costs, TPC-D queries (§6 generalized)", ParallelTPCD},
	{"ablation", "knob ablations (§4.4, §5.3)", Ablations},
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for i := range Experiments {
		if Experiments[i].ID == id {
			return &Experiments[i]
		}
	}
	return nil
}

// measure runs sql under the strategy, returning the best-of-Repeats time.
func measure(e *engine.Engine, sql string, s engine.Strategy, repeats int) (Line, error) {
	line := Line{Strategy: s.String()}
	p, err := e.Prepare(sql, s)
	if err != nil {
		if errors.Is(err, classic.ErrNotApplicable) {
			line.Note = "not applicable: " + err.Error()
			return line, nil
		}
		return line, err
	}
	best := time.Duration(1<<62 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		rows, stats, err := p.Run()
		if err != nil {
			return line, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		line.Stats = *stats
		line.Rows = len(rows)
	}
	line.Millis = float64(best.Microseconds()) / 1000
	return line, nil
}

// runFigure measures one query under the given strategies.
func runFigure(db *storage.DB, cfg Config, id, title, paper, sql string, strategies []engine.Strategy) (*Report, error) {
	e := engine.New(db)
	e.MaterializeCSE = false // Starburst recomputed shared boxes; the figures measure that
	r := &Report{ID: id, Title: title, Paper: paper,
		Scale: fmt.Sprintf("TPC-D SF=%g seed=%d", cfg.SF, cfg.Seed)}
	for _, s := range strategies {
		l, err := measure(e, sql, s, cfg.Repeats)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", id, s, err)
		}
		r.Lines = append(r.Lines, l)
	}
	return r, nil
}

var allStrategies = []engine.Strategy{
	engine.NI, engine.NIBatch, engine.Kim, engine.Dayal, engine.Magic, engine.OptMagic,
}
