package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
	"decorr/internal/wire"
)

// startServer runs a server over a sized EmpDept database on a loopback
// listener and tears it down with the test.
func startServer(t *testing.T, cfg Config, nEmp int) (*Server, string) {
	t.Helper()
	if cfg.Engine == nil {
		e := engine.New(tpcd.EmpDeptSized(40, nEmp, 6, 11))
		e.EnablePlanCache(64)
		e.MountSystemCatalog()
		cfg.Engine = e
	}
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// client is a test-side protocol peer: dial, handshake, then strict
// request/reply.
type client struct {
	t    *testing.T
	conn net.Conn
}

func dialClient(t *testing.T, addr string, options ...string) *client {
	t.Helper()
	c, err := tryDial(addr, options...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	return c
}

func tryDial(addr string, options ...string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := wire.Write(conn, &wire.Hello{Version: wire.Version, Options: options}); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := wire.Read(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if e, ok := reply.(*wire.Error); ok {
		conn.Close()
		return nil, e
	}
	if _, ok := reply.(*wire.HelloOK); !ok {
		conn.Close()
		return nil, fmt.Errorf("handshake reply %T", reply)
	}
	return &client{conn: conn}, nil
}

// rpc sends one request and reads one reply.
func (c *client) rpc(t *testing.T, req wire.Message) wire.Message {
	t.Helper()
	if err := wire.Write(c.conn, req); err != nil {
		t.Fatalf("write %T: %v", req, err)
	}
	reply, err := wire.Read(c.conn)
	if err != nil {
		t.Fatalf("read reply to %T: %v", req, err)
	}
	return reply
}

// drain pulls a cursor to exhaustion, returning rows and the Done frame.
func (c *client) drain(t *testing.T, cursorID uint64, maxRows uint32) ([]storage.Row, *wire.Done, *wire.Error) {
	t.Helper()
	var rows []storage.Row
	for {
		switch m := c.rpc(t, &wire.Fetch{CursorID: cursorID, MaxRows: maxRows}).(type) {
		case *wire.Batch:
			if len(m.Rows) == 0 {
				t.Fatal("server sent an empty batch")
			}
			rows = append(rows, m.Rows...)
		case *wire.Done:
			return rows, m, nil
		case *wire.Error:
			return rows, nil, m
		default:
			t.Fatalf("unexpected fetch reply %T", m)
		}
	}
}

func rowStrings(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// The remote result must match the in-process result row for row, in
// order, with the same stats totals in the Done frame.
func TestServeQueryMatchesEngine(t *testing.T) {
	srv, addr := startServer(t, Config{}, 500)
	const sql = "select name, building from emp where building <> 'B1'"
	want, wantStats, err := srv.cfg.Engine.Query(sql, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	c := dialClient(t, addr)
	ex, ok := c.rpc(t, &wire.Execute{SQL: sql}).(*wire.ExecuteOK)
	if !ok {
		t.Fatal("Execute did not return ExecuteOK")
	}
	if len(ex.Columns) != 2 || ex.Columns[0] != "name" {
		t.Fatalf("columns = %v", ex.Columns)
	}
	if ex.QueryID == 0 {
		t.Fatal("QueryID is zero with a registry enabled")
	}
	rows, done, werr := c.drain(t, ex.CursorID, 0)
	if werr != nil {
		t.Fatalf("drain: %v", werr)
	}
	got, wantS := rowStrings(rows), rowStrings(want)
	if len(got) != len(wantS) {
		t.Fatalf("got %d rows, want %d", len(got), len(wantS))
	}
	for i := range got {
		if got[i] != wantS[i] {
			t.Fatalf("row %d: got %q want %q", i, got[i], wantS[i])
		}
	}
	if done.RowsOut != uint64(len(want)) {
		t.Fatalf("Done.RowsOut = %d, want %d", done.RowsOut, len(want))
	}
	if done.Stats.RowsScanned != wantStats.RowsScanned {
		t.Fatalf("Done.Stats.RowsScanned = %d, want %d", done.Stats.RowsScanned, wantStats.RowsScanned)
	}
}

// Prepared statements: params bind per Execute, and small MaxRows values
// chunk the stream without changing its contents.
func TestServePreparedAndChunking(t *testing.T) {
	srv, addr := startServer(t, Config{}, 300)
	c := dialClient(t, addr)
	prep, ok := c.rpc(t, &wire.Prepare{SQL: "select name from emp where building = ?"}).(*wire.PrepareOK)
	if !ok || prep.NumParams != 1 {
		t.Fatalf("PrepareOK = %+v ok=%v", prep, ok)
	}
	for _, building := range []string{"B1", "B2"} {
		want, _, err := srv.cfg.Engine.QueryParams(
			"select name from emp where building = ?", engine.NI,
			[]sqltypes.Value{sqltypes.NewString(building)})
		if err != nil {
			t.Fatal(err)
		}
		ex, ok := c.rpc(t, &wire.Execute{
			StmtID: prep.StmtID,
			Params: []sqltypes.Value{sqltypes.NewString(building)},
		}).(*wire.ExecuteOK)
		if !ok {
			t.Fatalf("%s: Execute failed", building)
		}
		rows, done, werr := c.drain(t, ex.CursorID, 7) // deliberately tiny batches
		if werr != nil {
			t.Fatalf("%s: %v", building, werr)
		}
		if len(rows) != len(want) || done.RowsOut != uint64(len(want)) {
			t.Fatalf("%s: got %d rows, want %d", building, len(rows), len(want))
		}
		got, wantS := rowStrings(rows), rowStrings(want)
		for i := range got {
			if got[i] != wantS[i] {
				t.Fatalf("%s: row %d differs", building, i)
			}
		}
	}
	// Arity mismatch is an ordinary error; the session continues.
	if _, ok := c.rpc(t, &wire.Execute{StmtID: prep.StmtID}).(*wire.Error); !ok {
		t.Fatal("missing params did not error")
	}
	if _, ok := c.rpc(t, &wire.Ping{}).(*wire.Pong); !ok {
		t.Fatal("session did not survive an execute error")
	}
}

// DDL travels through Exec: a view created over the wire is immediately
// queryable on the same engine.
func TestServeExecDDL(t *testing.T) {
	_, addr := startServer(t, Config{}, 100)
	c := dialClient(t, addr)
	if _, ok := c.rpc(t, &wire.Exec{SQL: "create view big as select name from dept where budget > 200"}).(*wire.ExecOK); !ok {
		t.Fatal("create view failed")
	}
	ex, ok := c.rpc(t, &wire.Execute{SQL: "select name from big"}).(*wire.ExecuteOK)
	if !ok {
		t.Fatal("querying the new view failed")
	}
	if _, _, werr := c.drain(t, ex.CursorID, 0); werr != nil {
		t.Fatalf("drain view: %v", werr)
	}
	// A malformed statement is an ordinary error, not a disconnect.
	if _, ok := c.rpc(t, &wire.Exec{SQL: "create view ! nonsense"}).(*wire.Error); !ok {
		t.Fatal("bad DDL did not error")
	}
	if _, ok := c.rpc(t, &wire.Ping{}).(*wire.Pong); !ok {
		t.Fatal("session did not survive a DDL error")
	}
}

// Out-of-band cancellation: a Cancel frame on a second connection kills
// a stream mid-flight, and the victim's next Fetch reports the typed
// cancellation error.
func TestServeCancelMidStream(t *testing.T) {
	srv, addr := startServer(t, Config{}, 20000)
	c := dialClient(t, addr)
	ex, ok := c.rpc(t, &wire.Execute{SQL: "select name from emp"}).(*wire.ExecuteOK)
	if !ok {
		t.Fatal("Execute failed")
	}
	// Pull one batch so the stream is demonstrably mid-flight.
	if _, ok := c.rpc(t, &wire.Fetch{CursorID: ex.CursorID}).(*wire.Batch); !ok {
		t.Fatal("first fetch did not return a batch")
	}
	// The stream shows up in the remote system catalog while it runs.
	c2 := dialClient(t, addr)
	ex2, ok := c2.rpc(t, &wire.Execute{SQL: "select id, query from sys.active_queries"}).(*wire.ExecuteOK)
	if !ok {
		t.Fatal("sys.active_queries query failed")
	}
	active, _, werr := c2.drain(t, ex2.CursorID, 0)
	if werr != nil {
		t.Fatalf("drain sys.active_queries: %v", werr)
	}
	foundActive := false
	for _, r := range active {
		if r[0].I == ex.QueryID {
			foundActive = true
		}
	}
	if !foundActive {
		t.Fatalf("query %d missing from remote sys.active_queries: %v", ex.QueryID, rowStrings(active))
	}
	// Kill it from the second connection.
	kill, ok := c2.rpc(t, &wire.Cancel{QueryID: ex.QueryID}).(*wire.KillOK)
	if !ok || !kill.Found {
		t.Fatalf("Cancel = %+v ok=%v", kill, ok)
	}
	_, _, werr = c.drain(t, ex.CursorID, 0)
	if werr == nil {
		t.Fatal("stream survived a kill")
	}
	if !errors.Is(werr, exec.ErrCanceled) {
		t.Fatalf("kill error %v does not match exec.ErrCanceled", werr)
	}
	// Killing an already-finished query reports not found.
	kill, ok = c2.rpc(t, &wire.Cancel{QueryID: ex.QueryID}).(*wire.KillOK)
	if !ok || kill.Found {
		t.Fatalf("second Cancel = %+v ok=%v", kill, ok)
	}
	// The victim's session is still usable.
	if _, ok := c.rpc(t, &wire.Ping{}).(*wire.Pong); !ok {
		t.Fatal("session did not survive its query being killed")
	}
	_ = srv
}

// Session limits from the engine apply remotely with their typed
// identity: a row budget trips as CodeRowBudget.
func TestServeRowBudget(t *testing.T) {
	e := engine.New(tpcd.EmpDeptSized(40, 4000, 6, 11))
	e.Limits = exec.Limits{MaxOutputRows: 100}
	e.MountSystemCatalog()
	_, addr := startServer(t, Config{Engine: e}, 0)
	c := dialClient(t, addr)
	ex, ok := c.rpc(t, &wire.Execute{SQL: "select name from emp"}).(*wire.ExecuteOK)
	if !ok {
		t.Fatal("Execute failed")
	}
	rows, _, werr := c.drain(t, ex.CursorID, 0)
	if werr == nil {
		t.Fatal("stream ignored the row budget")
	}
	if !errors.Is(werr, exec.ErrRowBudget) {
		t.Fatalf("budget error %v does not match exec.ErrRowBudget", werr)
	}
	if len(rows) > 100 {
		t.Fatalf("%d rows crossed the wire past a 100-row budget", len(rows))
	}
}

// Handshake rejections: version mismatch, bad options, and admission
// control past MaxSessions.
// Every name in the engine's strategy table is a valid Hello option, in
// any case, and the session then runs under that strategy: the query log
// records its label.
func TestServeHelloAcceptsEveryStrategyName(t *testing.T) {
	srv, addr := startServer(t, Config{}, 50)
	for _, s := range engine.Strategies {
		for _, name := range []string{s.Name(), strings.ToUpper(s.Name())} {
			c, err := tryDial(addr, "strategy", name)
			if err != nil {
				t.Fatalf("Hello strategy=%s: %v", name, err)
			}
			ex, ok := c.rpc(t, &wire.Execute{SQL: tpcd.ExampleQuery}).(*wire.ExecuteOK)
			if !ok {
				t.Fatalf("strategy=%s: Execute did not return ExecuteOK", name)
			}
			if _, _, werr := c.drain(t, ex.CursorID, 0); werr != nil {
				t.Fatalf("strategy=%s: %v", name, werr)
			}
			c.conn.Close()
			logged := engine.Auto // never logged: Auto logs the alternative it chose
			for _, le := range srv.cfg.Engine.Registry().Log() {
				if le.ID == int64(ex.QueryID) {
					logged = le.Strategy
				}
			}
			if logged == engine.Auto || (s != engine.Auto && logged != s) {
				t.Errorf("strategy=%s ran as %s, want %s", name, logged, s)
			}
		}
	}
}

func TestServeHandshakeAndAdmission(t *testing.T) {
	_, addr := startServer(t, Config{MaxSessions: 1}, 50)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire.Write(conn, &wire.Hello{Version: 99})
	if m, err := wire.Read(conn); err != nil {
		t.Fatal(err)
	} else if e, ok := m.(*wire.Error); !ok || e.Code != wire.CodeProtocol {
		t.Fatalf("version mismatch reply = %+v", m)
	}

	if _, err := tryDial(addr, "strategy", "nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := tryDial(addr, "workers", "-3"); err == nil {
		t.Fatal("negative workers accepted")
	}

	first, err := tryDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.conn.Close()
	_, err = tryDial(addr)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable {
		t.Fatalf("second session past MaxSessions=1: err=%v", err)
	}
	// Dropping the first session frees the slot.
	first.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := tryDial(addr)
		if err == nil {
			c.conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Status reports liveness numbers, and protocol violations close the
// connection after an Error reply.
func TestServeStatusAndProtocolErrors(t *testing.T) {
	_, addr := startServer(t, Config{}, 50)
	c := dialClient(t, addr)
	st, ok := c.rpc(t, &wire.Status{}).(*wire.StatusOK)
	if !ok || st.Sessions < 1 || st.HeapAlloc == 0 {
		t.Fatalf("StatusOK = %+v ok=%v", st, ok)
	}
	// Fetching a cursor that never existed is fatal to the session.
	reply, ok := c.rpc(t, &wire.Fetch{CursorID: 42}).(*wire.Error)
	if !ok || reply.Code != wire.CodeProtocol {
		t.Fatalf("unknown cursor reply = %+v", reply)
	}
	if _, err := wire.Read(c.conn); err == nil {
		t.Fatal("connection stayed open after a protocol violation")
	}
}
