package client

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"energydb/internal/server/wire"
)

// TestDialClosesConnOnHandshakeReject is the leak regression test for Dial:
// when the server rejects the handshake, the client must close its TCP
// connection before returning the error. The fake server accepts, reads the
// Hello, replies with an Error frame, and then waits for EOF — which only
// arrives if the client actually closed its side.
func TestDialClosesConnOnHandshakeReject(t *testing.T) {
	testDialClosesConn(t, Options{Engine: "sqlite"}, func(c net.Conn) {
		if _, err := wire.Read(c); err != nil {
			t.Errorf("server read hello: %v", err)
			return
		}
		if err := wire.Write(c, &wire.Error{Msg: "no such engine"}); err != nil {
			t.Errorf("server write error: %v", err)
		}
	})
}

// TestDialClosesConnOnGarbageFrame covers the "unexpected frame" return
// path: the server answers the handshake with a protocol-legal but
// out-of-place frame.
func TestDialClosesConnOnGarbageFrame(t *testing.T) {
	testDialClosesConn(t, Options{Engine: "sqlite"}, func(c net.Conn) {
		if _, err := wire.Read(c); err != nil {
			t.Errorf("server read hello: %v", err)
			return
		}
		if err := wire.Write(c, &wire.Quit{}); err != nil {
			t.Errorf("server write: %v", err)
		}
	})
}

// TestDialClosesConnOnImmediateClose covers the transport-error paths: the
// Hello cannot be sent (a frame over wire.MaxFrame fails before a byte is
// written), or the server hangs up without answering it.
func TestDialClosesConnOnImmediateClose(t *testing.T) {
	t.Run("send", func(t *testing.T) {
		testDialClosesConn(t, Options{Engine: strings.Repeat("x", wire.MaxFrame)}, func(net.Conn) {})
	})
	t.Run("read", func(t *testing.T) {
		testDialClosesConn(t, Options{Engine: "sqlite"}, func(c net.Conn) {
			if _, err := wire.Read(c); err != nil {
				t.Errorf("server read hello: %v", err)
				return
			}
			if err := c.(*net.TCPConn).CloseWrite(); err != nil {
				t.Errorf("server hang-up: %v", err)
			}
		})
	})
}

// testDialClosesConn runs one fake-server script against a Dial with opts and
// asserts the failed Dial left no open socket: after the script, the
// server-side read must see EOF (client closed) rather than time out (client
// leaked the conn).
func testDialClosesConn(t *testing.T, opts Options, script func(net.Conn)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	sawEOF := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			sawEOF <- err
			return
		}
		defer c.Close()
		script(c)
		// The client holds no reference to the conn after a failed Dial, so
		// the only way this read returns is the client closing its side.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		_, err = c.Read(one[:])
		sawEOF <- err
	}()

	conn, err := Dial(ln.Addr().String(), opts)
	if err == nil {
		conn.Close()
		t.Fatal("Dial succeeded; fake server should have failed the handshake")
	}
	err = <-sawEOF
	if !errors.Is(err, io.EOF) {
		t.Fatalf("server-side read after failed Dial: %v, want EOF (client leaked the connection?)", err)
	}
}
