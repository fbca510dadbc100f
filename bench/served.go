package main

import (
	"bufio"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "decorr/driver"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/wire"
)

// moduleRoot walks up from the working directory to the decorr module
// root: `go run ./bench` starts there, `go test ./bench` one level below.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module decorr\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the decorr module")
		}
		dir = parent
	}
}

// buildDecorrd compiles cmd/decorrd into bench/out and returns the binary.
// Build time is harness cost, never part of setup_s.
func buildDecorrd(root string) (string, error) {
	bin := filepath.Join(root, "bench", "out", "decorrd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/decorrd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/decorrd: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running decorrd subprocess.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once cmd.Wait returned
}

// launchDecorrd starts decorrd on a kernel-chosen loopback port with the
// workload's dataset and otherwise default flags (-workers 0, -plancache
// 256), and returns once the startup line names the bound address.
func launchDecorrd(bin string, sf float64, seed int64) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dataset", "tpcd",
		"-sf", strconv.FormatFloat(sf, 'g', -1, 64), "-seed", strconv.FormatInt(seed, 10))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.exited)
		// "decorrd: serving tpcd on HOST:PORT (...)" appears only after
		// Listen succeeded. Keep reading afterwards so the child never
		// blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			for i := range f {
				if f[i] == "on" && i+1 < len(f) && i > 0 && f[i-1] == "tpcd" {
					select {
					case addrCh <- f[i+1]:
					default:
					}
				}
			}
		}
		cmd.Wait()
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.exited:
		return nil, errors.New("decorrd exited before serving")
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, errors.New("decorrd did not start within 60s")
	}
}

// stop kills the subprocess and waits until it has ended.
func (p *serverProc) stop() {
	p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMiB reads the subprocess's VmHWM.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// procUsage is a subprocess's cumulative CPU time and minor page faults.
type procUsage struct {
	userS, sysS float64
	minorFaults float64
}

// usage reads /proc/<pid>/stat (fields 10, 14 and 15; times in clock ticks
// of 1/100 s); zero when the file cannot be read. It feeds a diagnostic
// printed beside the metrics: how much of the window the server spent in the
// kernel and how many pages it faulted in say whether a slow window was slow
// in the program or in the host's memory (see README, "Open findings").
func (p *serverProc) usage() procUsage {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return procUsage{}
	}
	// The command name (field 2) may contain spaces; count from its ")".
	f := strings.Fields(string(b)[strings.LastIndexByte(string(b), ')')+1:])
	if len(f) < 13 {
		return procUsage{}
	}
	var u procUsage
	u.minorFaults, _ = strconv.ParseFloat(f[7], 64)
	u.userS, _ = strconv.ParseFloat(f[11], 64)
	u.sysS, _ = strconv.ParseFloat(f[12], 64)
	u.userS /= 100
	u.sysS /= 100
	return u
}

// selfUsage is the same reading for the harness process.
func selfUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	return procUsage{userS: time.Duration(ru.Utime.Nano()).Seconds(), sysS: time.Duration(ru.Stime.Nano()).Seconds(), minorFaults: float64(ru.Minflt)}
}

func (u procUsage) since(u0 procUsage) procUsage {
	return procUsage{u.userS - u0.userS, u.sysS - u0.sysS, u.minorFaults - u0.minorFaults}
}

// startServed launches decorrd and times the launch to the first successful
// db.Ping: setup_s. The loop has one client connection; database/sql may
// not open more.
func startServed(bin string, w *workload, sf float64, seed int64) (*serverProc, *sql.DB, float64, error) {
	start := time.Now()
	p, err := launchDecorrd(bin, sf, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	db, err := sql.Open("decorr", w.dsn(p.addr))
	if err == nil {
		db.SetMaxOpenConns(1)
		err = db.Ping()
	}
	if err != nil {
		p.stop()
		return nil, nil, 0, fmt.Errorf("first ping: %w", err)
	}
	return p, db, time.Since(start).Seconds(), nil
}

// window is what one closed-loop measurement window observed.
type window struct {
	elapsed time.Duration
	// Per correct op, in the order they ran:
	latMs     []float64
	firstMs   []float64
	doneS     []float64 // seconds from the window's start to the op's end
	opRows    []float64 // rows the op delivered
	attempted int
	failed    int
	rows      int64
	firstErr  error
}

// perBlock cuts the window's ops into blocks that each support percentile p
// and returns f of every block.
func (w *window) perBlock(p float64, f func(lo, hi int) float64) []float64 {
	b := blockBounds(len(w.latMs), samplesFor(p))
	out := make([]float64, len(b)-1)
	for i := range out {
		out[i] = f(b[i], b[i+1])
	}
	return out
}

// blockStat is the window's value of a per-block statistic: the better
// quartile over the blocks (see betterQuartile).
func (w *window) blockStat(p float64, lowerIsBetter bool, f func(lo, hi int) float64) float64 {
	return betterQuartile(w.perBlock(p, f), lowerIsBetter)
}

// blockSeconds is how long ops [lo, hi) took: from the end of the op
// before them (or the window's start) to the end of the last.
func (w *window) blockSeconds(lo, hi int) float64 {
	if lo == 0 {
		return w.doneS[hi-1]
	}
	return w.doneS[hi-1] - w.doneS[lo-1]
}

func (w *window) p50Ms() float64 {
	return w.blockStat(50, true, func(lo, hi int) float64 { return median(w.latMs[lo:hi]) })
}

// client issues a workload's calls over database/sql.
type client struct {
	w     *workload
	db    *sql.DB
	stmts []*sql.Stmt // per text, when w.prepared
	// Scan targets and the scanned row in the engine's value domain, reused
	// from row to row.
	dest []any
	ptrs []any
	row  storage.Row
}

func newClient(w *workload, db *sql.DB) (*client, error) {
	c := &client{w: w, db: db}
	if w.prepared {
		for _, text := range w.texts {
			st, err := db.Prepare(text)
			if err != nil {
				return nil, fmt.Errorf("prepare: %w", err)
			}
			c.stmts = append(c.stmts, st)
		}
	}
	return c, nil
}

func (c *client) close() {
	for _, st := range c.stmts {
		st.Close()
	}
}

func (c *client) query(cl *call) (*sql.Rows, error) {
	if c.w.prepared {
		return c.stmts[cl.text].QueryContext(context.Background(), anyArgs(cl.args)...)
	}
	return c.db.QueryContext(context.Background(), c.w.texts[cl.text], anyArgs(cl.args)...)
}

// runOp runs op i to completion, timing it with t, and checks every
// statement's rows against the oracle after the timer has stopped.
func (c *client) runOp(i int, t *opTimer) (rows int64, err error) {
	calls := c.w.op(i)
	obs := make([]observed, len(calls))
	for j, cl := range calls {
		t.beginStmt()
		rs, err := c.query(cl)
		if err != nil {
			return rows, err
		}
		cols, err := rs.Columns()
		if err != nil {
			rs.Close()
			return rows, err
		}
		if len(cols) != len(c.dest) {
			c.dest = make([]any, len(cols))
			c.ptrs = make([]any, len(cols))
			c.row = make(storage.Row, len(cols))
			for k := range c.dest {
				c.ptrs[k] = &c.dest[k]
			}
		}
		o := &obs[j]
		keep := cl.want.rows != nil
		for rs.Next() {
			t.row()
			if err := rs.Scan(c.ptrs...); err != nil {
				rs.Close()
				return rows, err
			}
			scannedRow(c.dest, c.row)
			o.fp.add(c.row)
			if keep {
				o.rows = append(o.rows, c.row.Clone())
			}
		}
		t.row() // an empty result's first row time is its end
		if err := rs.Err(); err != nil {
			rs.Close()
			return rows, err
		}
		if err := rs.Close(); err != nil {
			return rows, err
		}
		t.endStmt()
		rows += int64(o.fp.n)
	}
	for j, cl := range calls {
		if !cl.want.matches(&obs[j]) {
			return rows, fmt.Errorf("oracle mismatch on %s statement %d: got %d rows, want %d",
				c.w.name, cl.text, obs[j].fp.n, cl.want.n)
		}
	}
	return rows, nil
}

// scannedRow converts a row as database/sql delivered it into the engine's
// value domain, which the fingerprint and the bag comparison work in.
func scannedRow(dest []any, row storage.Row) {
	for i, v := range dest {
		switch v := v.(type) {
		case int64:
			row[i] = sqltypes.NewInt(v)
		case float64:
			row[i] = sqltypes.NewFloat(v)
		case string:
			row[i] = sqltypes.NewString(v)
		case bool:
			row[i] = sqltypes.NewBool(v)
		default:
			row[i] = sqltypes.Null
		}
	}
}

// runWindow drives ops first..., closed loop, until d has elapsed, and
// returns what it saw plus the next op index. An op that starts inside the
// window completes and counts; elapsed runs to the end of the last op.
func (c *client) runWindow(first int, d time.Duration) (window, int) {
	var win window
	start := time.Now()
	i := first
	for time.Since(start) < d {
		t := newOpTimer(time.Now)
		win.attempted++
		rows, err := c.runOp(i, t)
		i++
		win.rows += rows
		if err != nil {
			win.failed++
			if win.firstErr == nil {
				win.firstErr = err
			}
			continue
		}
		win.latMs = append(win.latMs, ms(t.latency()))
		win.firstMs = append(win.firstMs, ms(t.firstRow))
		win.doneS = append(win.doneS, time.Since(start).Seconds())
		win.opRows = append(win.opRows, float64(rows))
	}
	win.elapsed = time.Since(start)
	return win, i
}

// wireClient is a raw protocol connection, exchanging frames exactly as
// the driver does: one unbuffered request write, one reply read.
type wireClient struct {
	nc         net.Conn
	roundtrips int
}

func dialWire(addr string, options ...string) (*wireClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &wireClient{nc: nc}
	if _, err := c.rpc(&wire.Hello{Version: wire.Version, Options: options}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return c, nil
}

func (c *wireClient) rpc(req wire.Message) (wire.Message, error) {
	c.roundtrips++
	if err := wire.Write(c.nc, req); err != nil {
		return nil, err
	}
	reply, err := wire.Read(c.nc)
	if err != nil {
		return nil, err
	}
	if werr, ok := reply.(*wire.Error); ok {
		return nil, werr
	}
	return reply, nil
}

func (c *wireClient) status() (*wire.StatusOK, error) {
	reply, err := c.rpc(&wire.Status{})
	if err != nil {
		return nil, err
	}
	st, ok := reply.(*wire.StatusOK)
	if !ok {
		return nil, fmt.Errorf("unexpected status reply %T", reply)
	}
	return st, nil
}
