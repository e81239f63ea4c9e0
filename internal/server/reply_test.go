package server_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"energydb/internal/server"
	"energydb/internal/server/client"
	"energydb/internal/server/wire"
)

// writeCounter is a listener whose accepted connections count their Write
// calls, so a test can see how many writes the server made for one reply.
type writeCounter struct {
	net.Listener
	mu    sync.Mutex
	conns []*countedConn
}

type countedConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	// Counted before the bytes leave, so a client holding the reply sees
	// every write it took.
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (l *writeCounter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countedConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// only returns the one connection the listener has accepted.
func (l *writeCounter) only(t *testing.T) *countedConn {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.conns) != 1 {
		t.Fatalf("listener accepted %d connections, want 1", len(l.conns))
	}
	return l.conns[0]
}

// TestReplyIsOneWrite pins how a statement's answer leaves the server: a
// SELECT's ResultSet and EnergyReport in one write, a statement error in one
// write, and a result over wire.MaxFrame as one Error frame on a session
// that keeps serving.
func TestReplyIsOneWrite(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Listener: l}
	go srv.Serve(wc)
	t.Cleanup(func() { srv.Close() })
	conn, err := client.Dial(l.Addr().String(), client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := wc.only(t)

	// writesFor runs one statement and returns the server's writes for its
	// reply; the client has the whole reply when Query returns.
	writesFor := func(q string) (int64, error) {
		before := sc.writes.Load()
		_, err := conn.Query(q)
		return sc.writes.Load() - before, err
	}

	res, err := conn.Query("SELECT o_totalprice FROM orders WHERE o_orderkey = 7")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("keyed SELECT: %d rows, %v", len(res.Rows), err)
	}
	if n, err := writesFor("SELECT o_totalprice FROM orders WHERE o_orderkey = 7"); err != nil || n != 1 {
		t.Errorf("SELECT reply took %d writes (err %v), want 1", n, err)
	}
	if n, err := writesFor("SELECT nope FROM nowhere"); err == nil || n != 1 {
		t.Errorf("statement error took %d writes (err %v), want 1 and an error", n, err)
	}

	// One region row whose name is 1/24 of MaxFrame, joined to 25 nations,
	// is a result set over MaxFrame.
	name := strings.Repeat("x", wire.MaxFrame/24)
	if _, err := conn.Query("INSERT INTO region VALUES (1000, '" + name + "')"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := conn.Query(fmt.Sprintf("INSERT INTO nation VALUES (%d, 'N', 1000)", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := writesFor("SELECT r_name, n_name FROM region JOIN nation ON n_regionkey = r_regionkey WHERE r_regionkey = 1000")
	if _, ok := err.(*client.QueryError); !ok || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized result: err = %v, want a statement error naming MaxFrame", err)
	}
	if n != 1 {
		t.Errorf("oversized result's Error took %d writes, want 1", n)
	}
	if res, err := conn.Query("SELECT o_totalprice FROM orders WHERE o_orderkey = 7"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("session after the oversized result: %d rows, %v", len(res.Rows), err)
	}
}

// BenchmarkRoundTrip times the wire and hand-off layer: one client.Conn on a
// loopback energyd, one keyed SELECT on orders per iteration, over keys read
// from the table and warmed once before the timer starts. The simulator does
// almost nothing for such a statement, so socket, frames, parse, plan, the
// worker's lane and the reply write are what ns/stmt measures; allocs/op
// counts both ends, which share the process.
func BenchmarkRoundTrip(b *testing.B) {
	_, addr := startServerCfg(b, server.Config{Workers: 1})
	conn, err := client.Dial(addr, client.Options{Engine: "postgresql", Setting: "baseline", Class: "10MB"})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	keys, err := conn.Query("SELECT o_orderkey FROM orders WHERE o_orderkey < 4096")
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(keys.Rows))
	for i, r := range keys.Rows {
		texts[i] = "SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = " + r[0].String()
	}
	for _, q := range texts {
		if _, err := conn.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := conn.Query(texts[i%len(texts)])
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("%s: %v rows, %v", texts[i%len(texts)], res, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/stmt")
}
