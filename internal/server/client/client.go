// Package client is the Go client library for energyd (internal/server).
// It dials the server, performs the Hello/HelloAck handshake, and exposes a
// Query call that returns both the result rows and the per-query
// Active-energy breakdown the server attributes to this session.
//
// A Conn is safe for use by one goroutine at a time (the protocol is
// strictly request–response per session); open one Conn per goroutine for
// concurrent load, as the server multiplexes sessions fairly.
package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"

	"energydb/internal/db/value"
	"energydb/internal/server/wire"
)

// Options selects the session's engine. Zero values mean the server
// defaults (sqlite / baseline / 10MB).
type Options struct {
	Engine  string // "postgresql", "sqlite", "mysql"
	Setting string // "small", "baseline", "large"
	Class   string // "10MB", "100MB", "500MB", "1GB"
}

// Conn is one energyd session.
type Conn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	ack wire.HelloAck

	txnID uint64
	inTxn bool
}

// Result is one statement's answer.
type Result struct {
	// Cols and Rows are the statement's result set.
	Cols []string
	Rows []value.Row
	// Energy is the statement's Eq. 1 breakdown plus session totals.
	Energy wire.EnergyReport
}

// Dial connects and completes the handshake. On any handshake failure the
// TCP connection is closed before returning: a non-nil error never leaks a
// socket, however the handshake went wrong (write failure, server Error
// reply, garbage frame, EOF).
func Dial(addr string, opts Options) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			nc.Close()
		}
	}()
	c := &Conn{c: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	if err := c.send(&wire.Hello{
		Version: wire.ProtocolVersion,
		Engine:  opts.Engine,
		Setting: opts.Setting,
		Class:   opts.Class,
	}); err != nil {
		return nil, err
	}
	ack, err := reply[*wire.HelloAck](c)
	if qe, rejected := err.(*QueryError); rejected {
		return nil, fmt.Errorf("client: server rejected handshake: %s", qe.Msg)
	}
	if err != nil {
		return nil, err
	}
	c.ack, ok = *ack, true
	return c, nil
}

// Info returns the server's handshake acknowledgement (resolved engine
// parameters, session id, banner).
func (c *Conn) Info() wire.HelloAck { return c.ack }

// Query runs one statement: SQL, or the `\qN` TPC-H shorthand. A *Error
// reply becomes a QueryError; transport failures come back as-is.
func (c *Conn) Query(text string) (*Result, error) {
	if err := c.send(&wire.Query{Text: text}); err != nil {
		return nil, err
	}
	rs, err := reply[*wire.ResultSet](c)
	if qe, failed := err.(*QueryError); failed && strings.HasSuffix(qe.Msg, wire.TxnRolledBackSuffix) {
		// The server rolled the open transaction back with the failed
		// statement; mirror it so InTxn stays honest.
		c.txnID, c.inTxn = 0, false
	}
	if err != nil {
		return nil, err
	}
	rep, err := reply[*wire.EnergyReport](c)
	if err != nil {
		return nil, err
	}
	// A transaction control sent as SQL text answers with a status row
	// rather than a TxnAck; mirror it so InTxn stays honest.
	switch rep.Name {
	case "begin":
		c.txnID, c.inTxn = 0, true
		if len(rs.Rows) == 1 && len(rs.Rows[0]) == 1 {
			fmt.Sscanf(rs.Rows[0][0].S, "BEGIN (txn %d)", &c.txnID)
		}
	case "commit", "rollback":
		c.txnID, c.inTxn = 0, false
	}
	return &Result{Cols: rs.Cols, Rows: rs.Rows, Energy: *rep}, nil
}

// Begin opens an explicit transaction: until Commit or Rollback, the
// session's statements read one pinned snapshot and its writes stay
// invisible to other sessions. Returns the server-assigned transaction ID.
func (c *Conn) Begin() (uint64, error) {
	ack, err := c.txnCtl(wire.TxnBegin)
	if err != nil {
		return 0, err
	}
	return ack.TxnID, nil
}

// Commit publishes the open transaction's writes atomically.
func (c *Conn) Commit() error {
	_, err := c.txnCtl(wire.TxnCommit)
	return err
}

// Rollback discards the open transaction's writes.
func (c *Conn) Rollback() error {
	_, err := c.txnCtl(wire.TxnRollback)
	return err
}

// InTxn reports whether the session has an open explicit transaction, and
// its ID when it does.
func (c *Conn) InTxn() (uint64, bool) { return c.txnID, c.inTxn }

func (c *Conn) txnCtl(op wire.TxnOp) (*wire.TxnAck, error) {
	if err := c.send(&wire.TxnCtl{Op: op}); err != nil {
		return nil, err
	}
	ack, err := reply[*wire.TxnAck](c)
	if err != nil {
		return nil, err
	}
	c.txnID, c.inTxn = ack.TxnID, ack.Active
	return ack, nil
}

// Stats requests the server's observability snapshot (the STATS command):
// energy totals and Eq. 1 component split, the full metrics registry, and
// the slow/hot query boards.
func (c *Conn) Stats() (*wire.StatsSnapshot, error) {
	if err := c.send(&wire.Stats{}); err != nil {
		return nil, err
	}
	r, err := reply[*wire.StatsReply](c)
	if err != nil {
		return nil, err
	}
	return r.Snapshot()
}

// Close sends Quit and closes the connection.
func (c *Conn) Close() error {
	_ = c.send(&wire.Quit{}) // best effort; the server also handles EOF
	return c.c.Close()
}

// reply reads the answer to a request: the frame F it expects, an Error
// frame as a *QueryError (the session stays usable), or else a protocol
// error.
func reply[F wire.Frame](c *Conn) (F, error) {
	var want F
	f, err := wire.Read(c.r)
	if err != nil {
		return want, err
	}
	switch f := f.(type) {
	case F:
		return f, nil
	case *wire.Error:
		return want, &QueryError{Msg: f.Msg}
	default:
		return want, fmt.Errorf("client: expected %v, got %v", want.FrameType(), f.FrameType())
	}
}

func (c *Conn) send(f wire.Frame) error {
	if err := wire.Write(c.w, f); err != nil {
		return err
	}
	return c.w.Flush()
}

// QueryError is a statement-level failure: the session remains usable.
type QueryError struct {
	Msg string
}

// Error implements error.
func (e *QueryError) Error() string { return "energyd: " + e.Msg }
