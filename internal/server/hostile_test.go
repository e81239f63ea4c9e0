package server_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"

	"energydb/internal/server/wire"
)

// hostileResultSet is the body of a ResultSet frame of about size bytes with
// no columns and one row that claims a value for every byte left: NULLs, and
// a last byte of no value type.
func hostileResultSet(size int) []byte {
	body := []byte{byte(wire.TypeResultSet), 0, 0, 0, 0, 0, 0, 0, 1}
	values := size - len(body) - 4
	body = binary.BigEndian.AppendUint32(body, uint32(values))
	body = append(body, make([]byte, values)...)
	body[len(body)-1] = 0xee
	return body
}

// TestSessionRefusesServerFrames feeds a session, after its handshake, a
// 1 MiB ResultSet frame — a type only servers send — whose one row claims
// 2^20 values. The session refuses it on its type byte, answers "unexpected
// ResultSet frame" and closes, and the server allocates less than 2 MiB
// beyond the frame buffer doing so: decoding the body would allocate a value
// for every byte of it, 41.9 MB.
func TestSessionRefusesServerFrames(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if err := wire.Write(conn, &wire.Hello{Version: wire.ProtocolVersion, Engine: "sqlite", Setting: "baseline", Class: "10MB"}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.Read(r); err != nil {
		t.Fatal(err)
	} else if _, ok := f.(*wire.HelloAck); !ok {
		t.Fatalf("handshake answered %v", f.FrameType())
	}
	body := hostileResultSet(1 << 20)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Read(r)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := f.(*wire.Error); !ok || e.Msg != "unexpected ResultSet frame" {
		t.Fatalf("the session answered %#v", f)
	}
	if _, err := wire.Read(r); err != io.EOF {
		t.Errorf("after the refusal the session is still open (%v)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc - uint64(len(body)); grew >= 2<<20 {
		t.Errorf("refusing a %d-byte frame allocated %d bytes beyond its buffer", len(body), grew)
	}
}
