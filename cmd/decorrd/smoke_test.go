package main

import (
	"bufio"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"decorr"
	_ "decorr/driver"
	"decorr/internal/server"
	"decorr/internal/wire"
)

// TestServerSmoke is the `make server-smoke` target: build and start the
// real decorrd binary on a million-row dataset (exactly the package
// documentation's `decorrd -emp 1000000`), run a database/sql client
// against it from this process, and pin the two load-bearing claims of
// the network path —
//
//  1. the million-row result streams end to end in constant memory on
//     both sides of the wire: the client's peak heap (runtime.ReadMemStats
//     here) stays an order of magnitude below the materialized result,
//     and the server's peak heap (Status frames polled over a second
//     connection mid-stream) never grows a result buffer on top of the
//     stored table; and
//
//  2. a concurrent out-of-band Cancel — victim ID discovered by
//     SELECTing sys.active_queries over the wire, kill delivered on
//     another connection — terminates the victim's stream client-side
//     with the typed decorr.ErrCanceled sentinel, and the pool survives.
//
// With BENCH_SERVER_JSON set (the Makefile sets it), throughput and the
// peak heaps are written there as machine-readable results.
func TestServerSmoke(t *testing.T) {
	nEmp := 1_000_000
	if testing.Short() {
		nEmp = 100_000
	}

	addr := startDecorrd(t, nEmp)

	// Server-side heap watcher: a raw protocol connection polling Status
	// frames for the peak across the whole run.
	var peakServerHeap atomic.Uint64
	stopStatus := make(chan struct{})
	statusDone := make(chan struct{})
	sc := dialWire(t, addr)
	defer sc.Close()
	serverHeap := func() uint64 {
		if err := wire.Write(sc, &wire.Status{}); err != nil {
			return 0
		}
		reply, err := wire.Read(sc)
		if err != nil {
			return 0
		}
		st, ok := reply.(*wire.StatusOK)
		if !ok {
			return 0
		}
		if cur := peakServerHeap.Load(); st.HeapAlloc > cur {
			peakServerHeap.Store(st.HeapAlloc)
		}
		return st.HeapAlloc
	}
	baselineServerHeap := serverHeap()
	if baselineServerHeap == 0 {
		t.Fatal("no Status reply from decorrd")
	}
	go func() {
		defer close(statusDone)
		for {
			select {
			case <-stopStatus:
				return
			case <-time.After(5 * time.Millisecond):
			}
			serverHeap()
		}
	}()
	defer func() {
		close(stopStatus)
		<-statusDone
	}()

	db, err := sql.Open("decorr", "decorr://"+addr+"?fetch=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// --- Claim 1: the million-row stream, constant memory on both sides.
	stmt, err := db.Prepare("select name, building from emp where building <> ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	var peakClientHeap uint64
	sampleClient := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakClientHeap {
			peakClientHeap = ms.HeapAlloc
		}
	}
	sampleClient()

	start := time.Now()
	rows, err := stmt.Query("no-such-building")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var name, building string
	for rows.Next() {
		if n == 0 || n == int64(nEmp)/2 {
			// Spot-check decoding without paying Scan on every row.
			if err := rows.Scan(&name, &building); err != nil {
				t.Fatal(err)
			}
			if name == "" || building == "" {
				t.Fatalf("row %d: empty values %q %q", n, name, building)
			}
		}
		n++
		if n%100_000 == 0 {
			sampleClient()
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	elapsed := time.Since(start)
	sampleClient()

	if n != int64(nEmp) {
		t.Fatalf("streamed %d rows, want %d", n, nEmp)
	}

	// The client holds one fetch batch (4096 rows) at a time; a
	// materialized million-row result would be well north of 100 MB
	// (row headers plus two string-bearing values per row). 64 MB leaves
	// room for the test binary and GC pacing but not for the result.
	const clientBudget = 64 << 20
	if peakClientHeap > clientBudget {
		t.Errorf("client peak heap %d bytes over the %d budget", peakClientHeap, clientBudget)
	}
	// The server's only resident data is the stored table (the baseline);
	// streaming must not stack a result buffer on top of it. decorrd runs
	// under GOGC=40 (set by startDecorrd) so transient batch garbage
	// cannot legitimately double the heap, which keeps the bound sharp:
	// a buffered copy of the result (~the table's own size again) cannot
	// fit in the allowance.
	serverBudget := baselineServerHeap + baselineServerHeap/2 + 16<<20
	if peak := peakServerHeap.Load(); peak > serverBudget {
		t.Errorf("server peak heap %d bytes over the %d budget (baseline %d): a result buffer is growing with the stream",
			peak, serverBudget, baselineServerHeap)
	}

	// --- Claim 2: concurrent kill, typed sentinel client-side.
	victim, err := db.Query("select name, building from emp")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	for i := 0; i < 10; i++ {
		if !victim.Next() {
			t.Fatalf("victim ended after %d rows: %v", i, victim.Err())
		}
	}
	// The victim idles between fetches, so sys.active_queries (read over
	// the same pool) shows it; filter out the introspection query itself.
	var victimID int64
	ids, err := db.Query("select id, query from sys.active_queries")
	if err != nil {
		t.Fatal(err)
	}
	for ids.Next() {
		var id int64
		var text string
		if err := ids.Scan(&id, &text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "active_queries") {
			victimID = id
		}
	}
	if err := ids.Err(); err != nil {
		t.Fatal(err)
	}
	ids.Close()
	if victimID == 0 {
		t.Fatal("victim query not visible in sys.active_queries")
	}
	kc := dialWire(t, addr)
	defer kc.Close()
	if err := wire.Write(kc, &wire.Cancel{QueryID: victimID}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(kc)
	if err != nil {
		t.Fatal(err)
	}
	if ok, isOK := reply.(*wire.KillOK); !isOK || !ok.Found {
		t.Fatalf("kill reply %#v", reply)
	}
	for victim.Next() {
	}
	if err := victim.Err(); !errors.Is(err, decorr.ErrCanceled) {
		t.Fatalf("victim terminal error %v does not match decorr.ErrCanceled", err)
	}
	// The pool is not poisoned by its query being killed.
	var depts int64
	if err := db.QueryRow("select count(*) from dept").Scan(&depts); err != nil {
		t.Fatalf("pool unusable after kill: %v", err)
	}

	t.Logf("streamed %d rows in %s (%.0f rows/sec); heap: server baseline=%d peak=%d, client peak=%d",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		baselineServerHeap, peakServerHeap.Load(), peakClientHeap)

	if path := os.Getenv("BENCH_SERVER_JSON"); path != "" {
		writeBench(t, path, benchResult{
			Rows:               n,
			Seconds:            elapsed.Seconds(),
			RowsPerSec:         float64(n) / elapsed.Seconds(),
			FetchRows:          4096,
			ServerBaselineHeap: baselineServerHeap,
			PeakServerHeap:     peakServerHeap.Load(),
			PeakClientHeap:     peakClientHeap,
			Short:              testing.Short(),
		})
	}
}

// startDecorrd builds the decorrd binary and starts it on a kernel-picked
// port serving a sized emp table, returning the bound address scraped
// from its startup line. GOGC=40 keeps the server's heap tracking its
// live set, so Status-frame peaks measure residency, not GC slack.
func startDecorrd(t *testing.T, nEmp int) (addr string) {
	t.Helper()
	return startDecorrdProc(t, nEmp).addr
}

// decorrdProc is a running decorrd subprocess: its bound address, its
// process handle (for signals), and its exit status.
type decorrdProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error // buffered; receives cmd.Wait() exactly once
}

// signal delivers sig to the subprocess (SIGTERM begins a graceful
// drain; a second one forces the hard close).
func (p *decorrdProc) signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// waitExit blocks until the subprocess exits or the timeout fires,
// returning its Wait error (nil = exit status 0).
func (p *decorrdProc) waitExit(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-p.exited:
		p.exited <- err // re-arm for the Cleanup reader
		return err
	case <-time.After(timeout):
		t.Fatalf("decorrd did not exit within %s", timeout)
		return nil
	}
}

// startDecorrdProc builds and starts decorrd with the standard dataset
// flags plus extraArgs, waits for the startup line, and returns the
// process handle.
func startDecorrdProc(t *testing.T, nEmp int, extraArgs ...string) *decorrdProc {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "decorrd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-dataset", "empdept",
		"-emp", strconv.Itoa(nEmp),
		"-seed", "42",
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOGC=40")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 2)
	go func() {
		err := cmd.Wait()
		exited <- err
		exited <- err
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	// The "serving ... on HOST:PORT" line appears only after Listen
	// succeeded, so once parsed the server is accepting.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, " on ") {
				select {
				case lines <- line:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case line := <-lines:
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "on" && i+1 < len(fields) {
				addr = fields[i+1]
			}
		}
		if addr == "" {
			t.Fatalf("no address in startup line %q", line)
		}
	case err := <-exited:
		t.Fatalf("decorrd exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("decorrd did not start within 60s")
	}
	return &decorrdProc{cmd: cmd, addr: addr, exited: exited}
}

type benchResult struct {
	Rows               int64   `json:"rows"`
	Seconds            float64 `json:"seconds"`
	RowsPerSec         float64 `json:"rows_per_sec"`
	FetchRows          int     `json:"fetch_rows"`
	ServerBaselineHeap uint64  `json:"server_baseline_heap_bytes"`
	PeakServerHeap     uint64  `json:"peak_server_heap_bytes"`
	PeakClientHeap     uint64  `json:"peak_client_heap_bytes"`
	Short              bool    `json:"short"`
}

func writeBench(t *testing.T, path string, r benchResult) {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	t.Logf("wrote %s", path)
}

// dialWire opens and handshakes one raw protocol connection.
func dialWire(t *testing.T, addr string) net.Conn {
	t.Helper()
	var d net.Dialer
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(nc, &wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(*wire.HelloOK); !ok {
		t.Fatalf("handshake reply %T: %v", reply, reply)
	}
	return nc
}

// The smoke test reuses main's building blocks; keep the flag-validation
// helpers honest too.
func TestParseStrategyTable(t *testing.T) {
	for _, name := range []string{"ni", "nibatch", "kim", "dayal", "gw", "magic", "optmagic", "auto"} {
		if _, ok := server.ParseStrategy(name); !ok {
			t.Errorf("strategy %q missing from the server table", name)
		}
	}
	// nimemo was folded into nibatch; the name must not come back.
	for _, name := range []string{"bogus", "nimemo"} {
		if _, ok := server.ParseStrategy(name); ok {
			t.Errorf("%s strategy accepted", name)
		}
	}
}
