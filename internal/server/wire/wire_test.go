package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"energydb/internal/db/value"
	"energydb/internal/obs"
)

// sampleFrames covers every frame type with representative payloads,
// including empty and awkward cases (TestFrameTable holds it to that).
func sampleFrames() []Frame {
	return []Frame{
		&Hello{Version: ProtocolVersion, Engine: "sqlite", Setting: "baseline", Class: "10MB"},
		&Hello{Version: ProtocolVersion},
		&HelloAck{Banner: Banner(), Engine: "MySQL", Setting: "large", Class: "1GB", Tables: 8, SessionID: 42},
		&Query{Text: "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag"},
		&Query{Text: `\q6`},
		&ResultSet{},
		&ResultSet{
			Cols: []string{"a", "b", "c", "d", "e"},
			Rows: []value.Row{
				{value.Int(-7), value.Float(3.25), value.Str("héllo"), value.Date(912), value.Null()},
				{value.Int(1 << 62), value.Float(-0.0), value.Str(""), value.Null(), value.Str(strings.Repeat("x", 300))},
			},
		},
		&EnergyReport{
			Name: "tpch-q6", Rows: 1,
			EActive: 0.123, EBusy: 0.5, EBackground: 0.2, Seconds: 0.01,
			Joules:         [8]float64{0.05, 0.01, 0.002, 0.001, 0.0005, 0.0001, 0.003, 0.06},
			SessionQueries: 9, SessionActive: 1.5, SessionSeconds: 0.2,
		},
		&Error{Msg: "no table \"nope\""},
		&Quit{},
		&Stats{},
		&StatsReply{},
		&StatsReply{JSON: `{"banner":"energyd/1","queries":3}`},
		&TxnCtl{Op: TxnBegin},
		&TxnCtl{Op: TxnCommit},
		&TxnCtl{Op: TxnRollback},
		&TxnAck{},
		&TxnAck{TxnID: 7, Active: true},
	}
}

// TestFrameTable checks every type byte against the frame table: a byte
// decodes exactly when it has an entry, the entry builds a frame of its own
// type named like its struct, and sampleFrames covers every entry.
func TestFrameTable(t *testing.T) {
	samples := map[Type][]byte{}
	for _, f := range sampleFrames() {
		samples[f.FrameType()] = Encode(f)
	}
	for i := 0; i < 256; i++ {
		typ, e := Type(i), frames[i]
		if e.new == nil {
			if got := typ.String(); got != fmt.Sprintf("Type(0x%02x)", i) {
				t.Errorf("0x%02x has no entry but String() = %q", i, got)
			}
			if _, ok := samples[typ]; ok {
				t.Errorf("sampleFrames has a frame of type 0x%02x, which has no entry", i)
			}
			for _, enc := range samples {
				if f, err := Decode(append([]byte{byte(i)}, enc[1:]...)); err == nil {
					t.Errorf("0x%02x has no entry but decoded %#v", i, f)
				}
			}
			continue
		}
		f := e.new()
		if f.FrameType() != typ {
			t.Errorf("frames[0x%02x] builds a %v frame", i, f.FrameType())
		}
		if name := reflect.TypeOf(f).Elem().Name(); typ.String() != e.name || e.name != name {
			t.Errorf("0x%02x: String() = %q, entry %q, struct %s", i, typ.String(), e.name, name)
		}
		enc, ok := samples[typ]
		if !ok {
			t.Errorf("%v is in the frame table but not in sampleFrames", typ)
			continue
		}
		if _, err := Decode(enc); err != nil {
			t.Errorf("%v does not decode: %v", typ, err)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/frames.hex from the current encoder")

// TestFrameBytes pins the wire format itself: every sampleFrames entry must
// encode to the bytes in testdata/frames.hex, one "<type> <hex>" line each.
// A round trip cannot show this — an encoder and decoder that change
// together still agree with each other but no longer with other peers.
func TestFrameBytes(t *testing.T) {
	const golden = "testdata/frames.hex"
	var got strings.Builder
	for _, f := range sampleFrames() {
		fmt.Fprintf(&got, "%v %s\n", f.FrameType(), hex.EncodeToString(Encode(f)))
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d encoded frames, %s has %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("sample %d encodes as\n  %s\nwant\n  %s", i, gotLines[i], wantLines[i])
		}
	}
}

// BenchmarkFrames is the codec's host cost for one point-lookup exchange:
// each iteration encodes and decodes the Query, a one-row, four-column
// ResultSet and the EnergyReport (run with -benchmem for allocs/op).
func BenchmarkFrames(b *testing.B) {
	exchange := []Frame{
		&Query{Text: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 4711"},
		&ResultSet{
			Cols: []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"},
			Rows: []value.Row{{value.Int(4711), value.Int(991), value.Float(173665.47), value.Date(9131)}},
		},
		&EnergyReport{
			Name: "select", Rows: 1,
			EActive: 1.25e-6, EBusy: 3.1e-6, EBackground: 1.9e-6, Seconds: 2.2e-7,
			Joules:         [8]float64{4e-7, 2e-7, 1e-7, 5e-8, 2e-8, 1e-8, 3e-7, 1.7e-7},
			SessionQueries: 12, SessionActive: 1.5e-5, SessionSeconds: 2.6e-6,
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range exchange {
			if _, err := Decode(Encode(f)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Banner mirrors the server's banner without importing it (no cycle).
func Banner() string { return "energyd/1 test banner" }

func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		got, err := Decode(Encode(f))
		if err != nil {
			t.Fatalf("%v: decode failed: %v", f.FrameType(), err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", f.FrameType(), got, f)
		}
	}
}

func TestWriteReadStream(t *testing.T) {
	var b bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := Write(&b, f); err != nil {
			t.Fatalf("write %v: %v", f.FrameType(), err)
		}
	}
	for _, want := range frames {
		got, err := Read(&b)
		if err != nil {
			t.Fatalf("read %v: %v", want.FrameType(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("stream mismatch: got %#v want %#v", got, want)
		}
	}
	if _, err := Read(&b); err != io.EOF {
		t.Errorf("expected EOF at stream end, got %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"unknown type":       {0xff},
		"truncated hello":    Encode(&Hello{Engine: "sqlite"})[:3],
		"truncated results":  Encode(&ResultSet{Cols: []string{"a"}, Rows: []value.Row{{value.Int(1)}}})[:8],
		"trailing garbage":   append(Encode(&Quit{}), 0x00),
		"huge string length": {byte(TypeError), 0xff, 0xff, 0xff, 0xff, 'x'},
		"huge row count": {byte(TypeResultSet),
			0, 0, 0, 0, // ncols = 0
			0xff, 0xff, 0xff, 0xff}, // nrows = 4B with no payload
		"txn op 0": {byte(TypeTxnCtl), 0},
		"txn op 4": {byte(TypeTxnCtl), 4},
	}
	for name, data := range cases {
		if f, err := Decode(data); err == nil {
			t.Errorf("%s: expected error, decoded %#v", name, f)
		}
	}
}

func TestStatsSnapshotRoundTrip(t *testing.T) {
	snap := &StatsSnapshot{
		Banner:  "energyd/1 test",
		Engines: []string{"sqlite/baseline/10MB"},
		Metrics: obs.Snapshot{Families: []obs.FamilySnapshot{{
			Name: "energyd_energy_joules_total", Help: "Cumulative Eq. 1 component energy (J).", Kind: "gauge",
			Metrics: []obs.MetricSnapshot{
				{Labels: []obs.Label{{Name: "component", Value: "E_L1D"}}, Value: 0.5},
				{Labels: []obs.Label{{Name: "component", Value: "E_other"}}, Value: -0.25},
			},
		}}},
		Hottest: []obs.QueryLogEntry{{Session: 3, Name: "tpch-q6", Text: `\q6`, Rows: 1, EActive: 1.25}},
	}
	reply, err := snap.Reply()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Decode(Encode(reply))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fr.(*StatsReply).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("stats snapshot mismatch:\n got %#v\nwant %#v", got, snap)
	}
}

func TestStatsReplyRejectsBadJSON(t *testing.T) {
	r := &StatsReply{JSON: "{nope"}
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("expected error decoding malformed stats JSON")
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := Read(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestWriteRejectsOversizedFrame(t *testing.T) {
	q := &Query{Text: strings.Repeat("x", MaxFrame)}
	var b bytes.Buffer
	if err := Write(&b, q); err == nil {
		t.Fatal("expected oversized frame to be rejected")
	}
	if b.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes onto the wire", b.Len())
	}
}

// FuzzDecode asserts decoding never panics on arbitrary input, and that any
// successfully decoded frame re-encodes to a decodable equal frame.
func FuzzDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(Encode(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0x04, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(fr)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of valid frame failed: %v", err)
		}
		// Compare the second encoding byte-for-byte rather than the decoded
		// structs: DeepEqual is false for frames carrying NaN floats even
		// though the round trip is exact.
		if !bytes.Equal(enc, Encode(again)) {
			t.Fatalf("re-encode changed frame: %#v vs %#v", fr, again)
		}
	})
}

// FuzzQueryRoundTrip asserts arbitrary statement text survives the wire.
func FuzzQueryRoundTrip(f *testing.F) {
	f.Add("SELECT 1")
	f.Add(`\q6`)
	f.Add("")
	f.Add(strings.Repeat("∂", 100))
	f.Fuzz(func(t *testing.T, text string) {
		var b bytes.Buffer
		if err := Write(&b, &Query{Text: text}); err != nil {
			if len(text) >= MaxFrame-16 {
				return // legitimately oversized
			}
			t.Fatalf("write: %v", err)
		}
		fr, err := Read(&b)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		q, ok := fr.(*Query)
		if !ok || q.Text != text {
			t.Fatalf("round trip mangled query: %#v", fr)
		}
	})
}
