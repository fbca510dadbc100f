// Package driver is a database/sql driver for decorrd, the decorrelation
// engine's network server.
//
//	import _ "decorr/driver"
//
//	db, err := sql.Open("decorr", "127.0.0.1:7531?strategy=auto&workers=4")
//	rows, err := db.QueryContext(ctx, "select name from emp where building = ?", "B1")
//
// The DSN is "host:port" (an optional "decorr://" prefix is accepted)
// with optional query parameters:
//
//	strategy      default decorrelation strategy for the session: any name
//	              the server's strategy table declares — `decorrd -h`
//	              prints the list (engine.StrategyNames); an unknown name
//	              fails the connect
//	workers       executor worker goroutines per query (0 = server default)
//	fetch         rows per fetch reply (0 = server default)
//	dial_timeout  per-attempt dial+handshake bound (Go duration; default 5s)
//	retries       retry budget for dials and retryable rejections (default 4)
//	retry_seed    seed for the retry jitter (default derived from the address)
//
// Results stream: sql.Rows pulls one batch at a time from the server, so
// iterating a million-row result holds one batch on each side of the
// connection, never the full set.
//
// Resilience. Dial failures and the server's retryable rejections — a
// drain refusal (CodeUnavailable) or an overload shed (CodeOverloaded)
// — are retried with seeded-jitter exponential backoff, honoring the
// server's retry-after hint. Mid-request transport failures are NOT
// silently retried: once any request byte reached the wire the server
// may have executed the statement, so the error surfaces as a
// *TransportError (errors.Is(err, ErrTransport)) and the retry decision
// belongs to the caller. driver.ErrBadConn — which database/sql retries
// transparently — is reserved for failures where the request provably
// never reached the server.
//
// Context cancellation is out-of-band, Postgres style. The primary
// connection is blocked in a request/reply exchange, so when a query
// context is canceled the driver dials a short-lived second connection
// and sends a Cancel frame naming the server-side query ID; the victim's
// governor trips within one morsel of work and the pending fetch returns
// the typed cancellation error.
//
// Typed errors survive the wire: errors.Is(err, decorr.ErrRowBudget),
// decorr.ErrCanceled, decorr.ErrDeadlineExceeded, decorr.ErrMemBudget,
// and decorr.ErrPanic all hold on errors returned by this driver exactly
// as they do in-process.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"

	"decorr/internal/wire"
)

func init() {
	sql.Register("decorr", &Driver{})
}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open connects with the given DSN.
func (d *Driver) Open(name string) (driver.Conn, error) {
	c, err := d.OpenConnector(name)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once; database/sql then dials new
// connections through the returned Connector as its pool grows.
func (d *Driver) OpenConnector(name string) (driver.Connector, error) {
	cfg, err := parseDSN(name)
	if err != nil {
		return nil, err
	}
	return &connector{cfg: cfg}, nil
}

// config is a parsed DSN.
type config struct {
	addr        string
	options     []string // handshake key/value pairs
	fetch       uint32   // client-side fetch size (0 = server default)
	dialTimeout time.Duration
	retries     int
	retrySeed   uint64
}

func parseDSN(name string) (config, error) {
	s := strings.TrimPrefix(name, "decorr://")
	var query string
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s, query = s[:i], s[i+1:]
	}
	if s == "" {
		return config{}, errors.New("decorr: empty address in DSN")
	}
	cfg := config{addr: s, dialTimeout: DefaultDialTimeout, retries: DefaultRetries}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return config{}, fmt.Errorf("decorr: bad DSN parameters: %w", err)
	}
	var seedSet bool
	for key, vs := range vals {
		v := vs[len(vs)-1]
		switch key {
		case "strategy", "workers":
			// Validated server-side during the handshake.
			cfg.options = append(cfg.options, key, v)
		case "fetch":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return config{}, fmt.Errorf("decorr: bad fetch parameter %q", v)
			}
			cfg.fetch = uint32(n)
		case "dial_timeout":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return config{}, fmt.Errorf("decorr: bad dial_timeout parameter %q", v)
			}
			cfg.dialTimeout = d
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return config{}, fmt.Errorf("decorr: bad retries parameter %q", v)
			}
			cfg.retries = n
		case "retry_seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return config{}, fmt.Errorf("decorr: bad retry_seed parameter %q", v)
			}
			cfg.retrySeed = n
			seedSet = true
		default:
			return config{}, fmt.Errorf("decorr: unknown DSN parameter %q", key)
		}
	}
	if !seedSet {
		// FNV-1a of the address: stable per target, distinct across
		// targets, no wall-clock or global randomness involved.
		var h uint64 = 1469598103934665603
		for i := 0; i < len(cfg.addr); i++ {
			h ^= uint64(cfg.addr[i])
			h *= 1099511628211
		}
		cfg.retrySeed = h
	}
	return cfg, nil
}

type connector struct {
	cfg config
}

func (c *connector) Driver() driver.Driver { return &Driver{} }

// Connect dials with retry: dial and handshake failures, and the
// server's retryable rejections (drain, overload), are retried with
// seeded-jitter exponential backoff up to the configured budget. A
// non-retryable server rejection (version mismatch, bad option) or an
// expired caller context surfaces immediately.
func (c *connector) Connect(ctx context.Context) (driver.Conn, error) {
	r := newRNG(c.cfg.retrySeed ^ splitmix64(connectSeq.Add(1)))
	for attempt := 0; ; attempt++ {
		cn, err := dial(ctx, c.cfg)
		if err == nil {
			cn.rng = r
			return cn, nil
		}
		if attempt >= c.cfg.retries || !retryableConnect(ctx, err) {
			return nil, err
		}
		cRetries.Inc()
		if serr := sleepBackoff(ctx, r, attempt, retryAfterHint(err)); serr != nil {
			return nil, serr
		}
	}
}

// retryableConnect classifies connect failures. Anything that happened
// before the handshake completed left no server-side state, so dial and
// transport failures are all retryable; a server rejection is retryable
// exactly when it says so (drain, overload, capacity). An expired
// caller context is never retryable.
func retryableConnect(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return we.IsRetryable()
	}
	return true
}

// splitmix64 decorrelates per-connection jitter streams (see retry.go).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dial opens and handshakes one protocol connection. The whole attempt
// — TCP connect plus handshake round trip — runs under dialTimeout, so
// a black-holed or stalled server cannot pin Connect past its budget.
func dial(ctx context.Context, cfg config) (*conn, error) {
	if cfg.dialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
	}
	if err := wire.Write(nc, &wire.Hello{Version: wire.Version, Options: cfg.options}); err != nil {
		nc.Close()
		return nil, err
	}
	reply, err := wire.Read(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch m := reply.(type) {
	case *wire.HelloOK:
		nc.SetDeadline(time.Time{})
		return &conn{nc: nc, cfg: cfg, rng: newRNG(cfg.retrySeed)}, nil
	case *wire.Error:
		nc.Close()
		return nil, m
	default:
		nc.Close()
		return nil, fmt.Errorf("decorr: unexpected handshake reply %T", reply)
	}
}
