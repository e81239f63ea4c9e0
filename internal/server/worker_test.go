package server

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"energydb/internal/server/client"
)

// laneWaiters counts the goroutines blocked on a worker's lane: inside
// worker.submit, waiting to take the lane's slot.
func laneWaiters() int { return blockedIn("chan send", "server.(*worker).submit(") }

// blockedIn counts the goroutines whose dump header names state (a wait
// reason such as "chan send" or "sync.Mutex.Lock") and whose stack holds
// frame.
func blockedIn(state, frame string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	waiting := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "["+state) && strings.Contains(g, frame) {
			waiting++
		}
	}
	return waiting
}

// TestLaneServesArrivalOrder pins the fairness of a worker: on one worker,
// session A streams \q6 back to back while session B sends one \q6 at a
// time. Once B's statement is waiting on the lane, at most one of A's
// statements — the one running — may retire before it: A's next statement
// arrives after B's and must run after it. Positions are the query log's
// sequence numbers, so nothing between B's arrival and the test's reads is
// miscounted.
func TestLaneServesArrivalOrder(t *testing.T) {
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
	dial := func() *client.Conn {
		conn, err := client.Dial(l.Addr().String(), client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	a, b := dial(), dial()
	bID := b.Info().SessionID
	// lastSeq is the sequence number of the newest retired statement of
	// session sid (any session when sid is 0).
	lastSeq := func(sid uint64) int {
		for _, e := range srv.obs.qlog.Recent() {
			if sid == 0 || e.Session == sid {
				return int(e.Seq)
			}
		}
		return 0
	}

	stop := make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				streamed <- nil
				return
			default:
			}
			if _, err := a.Query(`\q6`); err != nil {
				streamed <- err
				return
			}
		}
	}()

	measured := 0
	for try := 0; measured < 5 && try < 100; try++ {
		replied := make(chan error, 1)
		go func() {
			_, err := b.Query(`\q6`)
			replied <- err
		}()
		before := -1
	poll:
		for before < 0 {
			select {
			case err := <-replied:
				if err != nil {
					t.Fatalf("B: %v", err)
				}
				break poll // taken at once, or before the poll saw it wait
			default:
			}
			if laneWaiters() > 0 {
				before = lastSeq(0)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
		if before < 0 {
			continue
		}
		measured++
		if err := <-replied; err != nil {
			t.Fatalf("B: %v", err)
		}
		if waited := lastSeq(bID) - before - 1; waited > 1 {
			t.Errorf("B's statement waited on the lane behind %d of A's statements, want at most 1", waited)
		}
	}
	close(stop)
	if err := <-streamed; err != nil {
		t.Fatalf("A: %v", err)
	}
	if measured < 5 {
		t.Fatalf("B's statement waited on the lane %d times in 100, want 5: A is not keeping the worker busy", measured)
	}
}

// TestWorkerCloseWaitsForRunningJob pins the worker's shutdown contract:
// close returns only after the job holding the lane has returned, a submit
// already waiting for the lane when close starts fails without running its
// job, and a submit after close fails at once without running its job.
func TestWorkerCloseWaitsForRunningJob(t *testing.T) {
	w := &worker{lane: make(chan struct{}, 1)}

	started, release := make(chan struct{}), make(chan struct{})
	finished := false
	submitted := make(chan error, 1)
	go func() {
		submitted <- w.submit(func() {
			close(started)
			<-release
			finished = true
		})
	}()
	<-started

	queuedRan := false
	queued := make(chan error, 1)
	go func() { queued <- w.submit(func() { queuedRan = true }) }()
	for laneWaiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() {
		w.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished {
		t.Fatal("close returned before the running job finished")
	}
	if err := <-submitted; err != nil {
		t.Fatalf("submit of the job that ran: %v", err)
	}
	if err := <-queued; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit queued before close = %v, want ErrServerClosed", err)
	}
	if queuedRan {
		t.Fatal("a job queued on the lane when close started ran")
	}

	ran := false
	late := make(chan error, 1)
	go func() { late <- w.submit(func() { ran = true }) }()
	select {
	case err := <-late:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("submit after close = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit after close blocked")
	}
	if ran {
		t.Fatal("a job submitted after close ran")
	}
}
