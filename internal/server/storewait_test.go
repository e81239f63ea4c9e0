package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"energydb/internal/server/client"
)

// TestStatsAnswerWhileStoreLoads holds the rule that no server lock is held
// across a channel wait. The test takes loadMu, so the first session to
// negotiate a store stays in its load, and a second session for the same
// store waits on the entry's ready channel. While both wait, every
// server-wide reader (Stats, Engines, TxnStats, StoreStats) must answer
// within a deadline: a latecomer that waited on ready with s.mu held, or a
// reader that waited on ready for a store still loading, would block them
// until the load ends. Then the load goes ahead and both sessions must
// finish their handshake on the one store and run a statement.
func TestStatsAnswerWhileStoreLoads(t *testing.T) {
	srv, err := New(Config{Workers: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	srv.loadMu.Lock()
	var release sync.Once
	unlock := func() { release.Do(srv.loadMu.Unlock) }
	t.Cleanup(unlock)

	type dialed struct {
		conn *client.Conn
		err  error
	}
	sessions := make(chan dialed, 2)
	dial := func() {
		conn, err := client.Dial(l.Addr().String(), client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
		sessions <- dialed{conn, err}
	}
	// waitFor waits for a session to block in sharedStore in state.
	waitFor := func(what, state string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); blockedIn(state, "server.(*Server).sharedStore(") == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("no session is %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	go dial()
	waitFor("waiting to load the store", "sync.Mutex.Lock")
	go dial()
	waitFor("waiting for the store's load", "chan receive")

	readers := []struct {
		name string
		read func()
	}{
		{"Stats", func() { srv.Stats() }},
		{"Engines", func() { srv.Engines() }},
		{"TxnStats", func() { srv.TxnStats() }},
		{"StoreStats", func() { srv.StoreStats() }},
	}
	var answered sync.WaitGroup
	for _, r := range readers {
		done := make(chan struct{})
		answered.Add(1)
		go func() {
			defer answered.Done()
			r.read()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Errorf("%s did not answer while a store was loading", r.name)
		}
	}

	unlock()
	for range 2 {
		d := <-sessions
		if d.err != nil {
			t.Fatalf("handshake: %v", d.err)
		}
		t.Cleanup(func() { d.conn.Close() })
		if _, err := d.conn.Query("SELECT COUNT(*) FROM nation"); err != nil {
			t.Fatalf("session %d: %v", d.conn.Info().SessionID, err)
		}
	}
	answered.Wait()
	if n := srv.Engines(); n != 1 {
		t.Errorf("%d stores provisioned, want the one both sessions share", n)
	}
}
