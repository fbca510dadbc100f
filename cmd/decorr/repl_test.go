package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decorr"
	"decorr/internal/engine"
)

// The \kill meta command: each of its three outcomes prints a distinct
// message, and killing a live query actually terminates it with the
// typed cancellation error.
func TestKillQueryCommand(t *testing.T) {
	eng := decorr.NewEngine(decorr.EmpDeptSized(40, 20000, 6, 7))
	eng.EnableRegistry(64)

	if got := killQuery(eng, "banana"); got != "usage: \\kill ID (ids from \\queries)" {
		t.Errorf("malformed arg: %q", got)
	}
	if got := killQuery(eng, ""); got != "usage: \\kill ID (ids from \\queries)" {
		t.Errorf("empty arg: %q", got)
	}
	if got := killQuery(eng, "999"); got != "no running query with id 999" {
		t.Errorf("unknown id: %q", got)
	}

	// Start a streaming query so there is a live registry entry to kill,
	// exactly what \queries would show alongside a concurrent client.
	st, err := eng.QueryStream(context.Background(), "select name from emp", decorr.NI, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	id := st.ID()
	if id == 0 {
		t.Fatal("stream has no registry id")
	}
	if got, want := killQuery(eng, fmt.Sprint(id)), fmt.Sprintf("killed query %d", id); got != want {
		t.Errorf("live kill: got %q want %q", got, want)
	}
	for {
		batch, err := st.Next()
		if err != nil {
			if !errors.Is(err, decorr.ErrCanceled) {
				t.Fatalf("killed stream failed with %v, want ErrCanceled", err)
			}
			break
		}
		if batch == nil {
			t.Fatal("killed stream drained cleanly")
		}
	}
	// The query is gone from the registry, so a second kill misses.
	if got, want := killQuery(eng, fmt.Sprint(id)), fmt.Sprintf("no running query with id %d", id); got != want {
		t.Errorf("re-kill: got %q want %q", got, want)
	}
}

func TestSplitStatement(t *testing.T) {
	cases := []struct {
		src, stmt, rest string
		ok              bool
	}{
		{"select 1; rest", "select 1", " rest", true},
		{"select 1", "", "select 1", false},
		{"select 'a;b'; x", "select 'a;b'", " x", true},
		{"select 'it''s;fine'; x", "select 'it''s;fine'", " x", true},
		{"; next", "", " next", true},
		{"select 'open ;", "", "select 'open ;", false}, // ; inside unterminated string
	}
	for _, c := range cases {
		stmt, rest, ok := splitStatement(c.src)
		if ok != c.ok || stmt != c.stmt || rest != c.rest {
			t.Errorf("splitStatement(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.src, stmt, rest, ok, c.stmt, c.rest, c.ok)
		}
	}
}

// runREPL feeds input to the REPL on a fresh EMP/DEPT engine and returns
// everything it printed (the REPL talks to the process's stdin/stdout).
func runREPL(t *testing.T, input string) string {
	t.Helper()
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	if err := os.WriteFile(inPath, []byte(input), 0o600); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(inPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedIn, savedOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = in, out
	defer func() { os.Stdin, os.Stdout = savedIn, savedOut }()
	repl(decorr.NewEngine(decorr.EmpDept()), decorr.NI)
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// Every name the \help line advertises is a name \strategy accepts —
// both come from the engine's strategy table. `\strategy auto` used to be
// advertised and rejected.
func TestREPLStrategyVocabulary(t *testing.T) {
	var script strings.Builder
	script.WriteString("\\help\n")
	for _, s := range engine.Strategies {
		script.WriteString("\\strategy " + s.Name() + "\n")
	}
	script.WriteString("\\strategy bogus\n\\q\n")
	out := runREPL(t, script.String())
	if !strings.Contains(out, "\\strategy "+engine.StrategyNames("|")+"\n") {
		t.Errorf("\\help does not list the table's vocabulary:\n%s", out)
	}
	for _, s := range engine.Strategies {
		if want := fmt.Sprintf("strategy = %s\n", s); !strings.Contains(out, want) {
			t.Errorf("\\strategy %s: output lacks %q", s.Name(), want)
		}
	}
	if !strings.Contains(out, "strategy = Auto\n") {
		t.Errorf("\\strategy auto was not accepted:\n%s", out)
	}
	if !strings.Contains(out, `unknown strategy "bogus"`) {
		t.Errorf("\\strategy bogus was not rejected:\n%s", out)
	}
}

func TestNamedQueriesNonEmpty(t *testing.T) {
	for name, sql := range namedQueries {
		if len(sql) < 20 {
			t.Errorf("named query %q suspiciously short", name)
		}
	}
}
